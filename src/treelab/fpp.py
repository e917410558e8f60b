"""First-passage percolation on trees: passage times, fastest finite-depth
transit, and level-set profiles against the rate-function predictions.

Edge v gets an i.i.d. time X_v; S_v is the sum along the root path.  The
finite-depth minimum B_n = min S_v / n over depth-n vertices with extendable
lineage proxies the fastest sustainable transit rate m1(1/br), and the
level-set growth exponent (1/n) log card{S_v <= y n} proxies the dimension
log(m(y) br) of the boundary set transited at rate y.  Level counts follow
the full level (their expectation is M_n times an exact tail), while the
minimum is restricted to lineages that actually continue, so dead ends never
fake a fast ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError, jsonable
from .ratecalc import Distribution, m_inverse, rate_m
from .networks import Environment
from .trees import Tree, TreeSpec, build_truncation, extendable_lineage
from .branching import branching_number, estimate_branching
from . import rng

_TAG_PASSAGE = 0xF22A


class PassageSample(Environment):
    """Passage times X_v (`x`, 0 at the root) and their root-path sums S_v
    (`s`) for one seed: an `Environment` of times, drawn and filled alike."""

    _tag, _image = _TAG_PASSAGE, None
    x, s = Environment.log_a, Environment.log_c


def sample_passage_times(tree: Tree, law: Distribution, seed: int) -> PassageSample:
    """i.i.d. edge times keyed by (seed, vertex id) and their sums; nothing
    is drawn until the sample is read."""
    return PassageSample(tree, law.require_x_type(), seed)


def first_passage_min(sample: PassageSample, n: int) -> float:
    """B_n: the minimum of S_v / n over depth-n vertices with extendable lineage."""
    tree = sample.tree
    if not 1 <= n <= tree.truncation_depth:
        raise ValidationError("n must be in 1..truncation_depth")
    sl = tree.level_slice(n)
    sel = extendable_lineage(tree)[sl]
    if not sel.any():
        raise ValidationError(f"level {n} has no vertices with extendable lineage")
    return float(np.min(sample.s[sl], where=sel, initial=np.inf)) / n


@dataclass
class ProfileStats:
    """Level-set counts at one depth for one seed (predictions: `FppReport`)."""

    depth: int
    seed: int
    b_n: float
    y: np.ndarray
    counts: np.ndarray
    exponents: np.ndarray                 # (1/n) log N_n(y); -inf where empty


def level_profile(sample: PassageSample, n: int, y_grid) -> ProfileStats:
    """Exact counts N_n(y) = card{|v| = n : S_v <= y n} over a y grid."""
    tree = sample.tree
    if not 1 <= n <= tree.truncation_depth:
        raise ValidationError("n must be in 1..truncation_depth")
    y = np.asarray(list(y_grid), dtype=np.float64)
    s_level = sample.s[tree.level_slice(n)]
    counts = np.array([np.count_nonzero(s_level <= yy * n) for yy in y],
                      dtype=np.int64)
    exponents = np.where(counts > 0, np.log(np.maximum(counts, 1)) / n, -np.inf)
    return ProfileStats(depth=n, seed=sample.seed, b_n=first_passage_min(sample, n),
                        y=y, counts=counts, exponents=exponents)


# ---------------------------------------------------------------------------
# Aggregated report
# ---------------------------------------------------------------------------

@dataclass
class FppReport:
    """Per-seed profiles plus their common predictions for one (spec, law)."""

    spec: TreeSpec
    law: Distribution
    depth: int
    branching: float
    branching_is_exact: bool
    predicted_rate: float                 # m1(1 / br)
    y: np.ndarray
    predicted_exponents: np.ndarray       # log(m(y) * br) over y
    profiles: list[ProfileStats] = field(default_factory=list)

    @property
    def b_values(self) -> np.ndarray:
        return np.array([p.b_n for p in self.profiles])

    def rows(self) -> list[dict]:
        return [{"seed": p.seed, "n": p.depth, "y": float(yy), "count": int(c),
                 "exponent": float(e), "predicted_exponent": float(pe)}
                for p in self.profiles
                for yy, c, e, pe in zip(self.y, p.counts, p.exponents,
                                        self.predicted_exponents)]

    def to_json(self) -> dict:
        return jsonable({
            "schema": 1,
            "spec": self.spec.to_json(),
            "law": self.law.to_json(),
            "depth": self.depth,
            "branching": self.branching,
            "branching_is_exact": self.branching_is_exact,
            "predicted_rate": self.predicted_rate,
            "b_values": [p.b_n for p in self.profiles],
            "mean_b": float(self.b_values.mean()),
            "y_grid": [float(v) for v in self.y],
            "predicted_exponents": [float(v) for v in self.predicted_exponents],
            "rows": self.rows(),
        })


def _branching_for(spec: TreeSpec, tree: Tree) -> tuple[float, bool]:
    """The spec's branching number, else an estimate at depth 4..24 that
    reads `tree` when its depth is in that range."""
    exact = spec.known_branching()
    if exact is not None:
        return exact, True
    if 4 <= tree.truncation_depth <= 24:
        est = estimate_branching(tree, 0.05)
    else:
        est = branching_number(spec, max(4, min(tree.truncation_depth, 24)), 0.05)
    return est.midpoint, False


def fpp_setup(spec: TreeSpec, law: Distribution, depth: int, seeds: int,
              y_grid, *, seed: int = 0
              ) -> tuple[FppReport, Callable[[int], ProfileStats]]:
    """The shared part of `fpp_report`: a report with the predictions and no
    profiles yet, and the per-seed step that makes the profile of replicate
    i.  The caches every replicate reads (the law's sampling table, the
    lineage mask, the parent ids) are built here, so the step may run on
    several threads."""
    law.require_x_type()
    if seeds < 1:
        raise ValidationError("need at least one seed")
    tree = build_truncation(spec, depth)
    if not tree.has_extendable_frontier:
        # every replicate's B_n would be empty, and the rate needs br > 0
        raise ValidationError(f"level {depth} has no vertices with extendable lineage")
    br, br_exact = _branching_for(spec, tree)
    predicted_rate = m_inverse(law, min(1.0, 1.0 / br))
    y = np.asarray(list(y_grid), dtype=np.float64)
    predicted_exp = np.array([math.log(m * br) if m > 0.0 else -math.inf
                              for m in (rate_m(law, float(yy)) for yy in y)])
    law.image_table(), tree._lineage, tree.parent  # fill before threads share them
    report = FppReport(spec=spec, law=law, depth=depth, branching=br,
                       branching_is_exact=br_exact, predicted_rate=predicted_rate,
                       y=y, predicted_exponents=predicted_exp)

    def replicate(i: int) -> ProfileStats:
        return level_profile(sample_passage_times(tree, law, rng.derive(seed, i)),
                             depth, y)

    return report, replicate


def fpp_report(spec: TreeSpec, law: Distribution, depth: int, seeds: int,
               y_grid, *, seed: int = 0) -> FppReport:
    """Replicated profiles with the transit-rate and exponent predictions.

    Replicate i uses the derived seed (seed, i), so reports are reproducible
    and worker-independent.
    """
    report, replicate = fpp_setup(spec, law, depth, seeds, y_grid, seed=seed)
    report.profiles = [replicate(i) for i in range(seeds)]
    return report
