"""Regime classification for random walks in random tree environments,
walk simulation, and the distributional flow fixed point for family trees.

The classifier compares p = min E[A**x] over x in [0, 1] against the
branching number and backs the comparison with structural witnesses: partial
sums of p**depth over the tree (finite sums force positive recurrence),
cutset sums of p**depth (vanishing infima force recurrence), and bounded
level-cutset sums (which force recurrence on their own).  Exactly on the
product-equals-one boundary no general rule exists, and the classifier says
so rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError, ValidationError
from .ratecalc import Distribution, fractional_moment, p_value
from .trees import Tree, TreeSpec, build_truncation, extendable_lineage, truncate
from .branching import estimate_branching, log_cutset_min
from .networks import Environment, effective_conductance
from . import rng

_TAG_WALK = 0x3A1C
_TAG_ESCAPE = 0xE5CA
_TAG_GW_COUNT = 0x6C01
_TAG_GW_RATIO = 0x6C02
_TAG_GW_PICK = 0x6C03

# Steps one escape walk may take before it counts as unresolved.
_STEP_CAP = 100_000_000

REGIMES = ("Transient", "Recurrent", "PositiveRecurrent", "Boundary", "Inconclusive")

CRITERION_TRANSIENT = "transient: p*br > 1"
CRITERION_CUTSET = "recurrent: cutset sums of p^depth vanish"
CRITERION_SUM = "positive recurrent: sum of p^depth converges"
CRITERION_BOUNDED = "recurrent: bounded cutset sums"
CRITERION_FAMILY = "family tree: p*mean-offspring vs 1"
CRITERION_BOUNDARY = "boundary: p*br = 1 within tolerance"
CRITERION_NONE = "inconclusive: conflicting or insufficient evidence"


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass
class ClassificationReport:
    """Verdict plus the inequality and numbers that produced it."""

    regime: str
    p: float
    x_star: float
    branching_lo: float
    branching_hi: float
    branching_exact: bool
    criterion: str
    tol: float
    witnesses: dict = field(default_factory=dict)
    notes: str = ""

    @property
    def branching_mid(self) -> float:
        return 0.5 * (self.branching_lo + self.branching_hi)

    def to_json(self) -> dict:
        def clean(v):
            if isinstance(v, float) and math.isinf(v):
                return "inf" if v > 0 else "-inf"
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            if isinstance(v, (list, tuple)):
                return [clean(u) for u in v]
            if isinstance(v, dict):
                return {k: clean(u) for k, u in v.items()}
            return v

        return {
            "schema": 1,
            "regime": self.regime,
            "p": self.p,
            "x_star": self.x_star,
            "branching": {"lo": self.branching_lo, "hi": self.branching_hi,
                          "exact": self.branching_exact},
            "criterion": self.criterion,
            "tol": self.tol,
            "witnesses": clean(self.witnesses),
            "notes": self.notes,
        }


def _analytic_level_counts(spec: TreeSpec, depth: int):
    """(M_k, extendable-lineage level counts) for generators with closed forms."""
    if spec.kind == "homogeneous":
        m = [float(spec.b) ** k for k in range(depth + 1)]
        return np.array(m), np.array(m)
    if spec.kind == "spine_with_leaves":
        m = [1.0] + [1.0 + spec.leaf_count_at(k - 1) for k in range(1, depth + 1)]
        return np.array(m), np.ones(depth + 1)
    return None


def _tree_level_counts(tree: Tree):
    alive = extendable_lineage(tree)
    m = tree.level_sizes().astype(np.float64)
    ext = np.array([float(alive[tree.level_slice(k)].sum())
                    for k in range(tree.truncation_depth + 1)])
    return m, ext


def _sum_evidence(m_counts: np.ndarray, p: float) -> dict:
    """Partial sums of p**k over levels, with a geometric-tail verdict."""
    k = np.arange(len(m_counts), dtype=np.float64)
    with np.errstate(over="ignore"):
        terms = m_counts * p**k
    partial = np.cumsum(terms)
    tail = terms[-6:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = tail[1:] / tail[:-1]
    ratios = ratios[np.isfinite(ratios)]
    underflowed = terms[-1] == 0.0 and float(np.max(terms)) > 0.0
    converges = underflowed or (len(ratios) > 0
                                and float(np.max(ratios)) <= 0.98)
    diverges = (not np.isfinite(partial[-1])) or (
        len(ratios) > 0 and float(np.min(ratios)) >= 1.02)
    return {
        "terms_tail": [float(t) for t in terms[-4:]],
        "partial_sums_tail": [float(s) for s in partial[-4:]],
        "partial_sum": float(partial[-1]),
        "tail_ratios": [float(r) for r in ratios],
        "converges": converges,
        "diverges": diverges,
    }


def _cutset_evidence(spec: TreeSpec, tree: Tree | None, ext_counts, p: float,
                     depth: int) -> dict:
    """Cutset infima of p**depth at the full and half window, with decay verdict."""
    half = depth // 2
    if spec.kind == "homogeneous":
        log_full = min(0.0, depth * math.log(spec.b * p))
        log_half = min(0.0, half * math.log(spec.b * p))
    elif spec.kind == "spine_with_leaves":
        log_full = depth * math.log(p)
        log_half = half * math.log(p)
    else:
        lam = 1.0 / p
        log_full = log_cutset_min(tree, lam)
        log_half = log_cutset_min(truncate(tree, half), lam)
    decays = log_full - log_half < math.log(0.5)
    return {
        "cutset_min_half": math.exp(log_half),
        "cutset_min_full": math.exp(log_full),
        "decays": decays,
    }


def _bounded_evidence(ext_counts: np.ndarray, p: float) -> dict:
    """Level-cutset sums restricted to extendable lineage, with boundedness verdict.

    The canonical cutsets are the extendable level sets; a sequence whose sums
    stay bounded while the cut depth grows certifies recurrence on its own.
    """
    k = np.arange(len(ext_counts), dtype=np.float64)
    with np.errstate(over="ignore"):
        sums = ext_counts * p**k
    sums = sums[1:]  # cutsets exclude the root
    half = len(sums) // 2
    late = sums[half:]
    early_max = float(np.max(sums[:half])) if half else float(np.max(sums))
    bounded = np.isfinite(late).all() and float(np.max(late)) <= max(
        2.0 * early_max, 2.0)
    return {
        "level_sums_tail": [float(s) for s in sums[-4:]],
        "bounded": bool(bounded),
    }


def classify(law: Distribution, spec: TreeSpec, depth: int,
             tol: float = 1e-9, *, vertex_cap: int | None = None
             ) -> ClassificationReport:
    """Decide the walk's regime for (law, tree family) by the strongest
    applicable criterion, with numeric witnesses attached.

    `depth` is the evaluation horizon for the structural witnesses; specs with
    closed-form level structure evaluate them analytically, so large horizons
    cost nothing.  The boundary tolerance applies to p*br when the branching
    number is exact and widens to the estimate interval when it is not.
    """
    law.require_positive_finite()
    if depth < 4:
        raise ValidationError("depth must be >= 4")
    p, x_star = p_value(law)
    witnesses: dict = {"p": p}

    if spec.kind == "galton_watson":
        m = spec.offspring.mean
        if m <= 1.0:
            raise ValidationError(
                "family-tree classification needs mean offspring > 1 "
                "(otherwise the tree is finite and the walk trivially recurrent)")
        pm = p * m
        witnesses.update({"mean_offspring": m, "p_times_mean": pm})
        if pm > 1.0 + tol:
            regime = "Transient"
        elif pm < 1.0 - tol:
            regime = "PositiveRecurrent"
        else:
            regime = "Recurrent"
            witnesses["boundary"] = True
        return ClassificationReport(
            regime=regime, p=p, x_star=x_star, branching_lo=m, branching_hi=m,
            branching_exact=True, criterion=CRITERION_FAMILY, tol=tol,
            witnesses=witnesses)

    analytic = _analytic_level_counts(spec, depth)
    tree = None
    if analytic is not None:
        m_counts, ext_counts = analytic
    else:
        tree = build_truncation(spec, depth, vertex_cap=vertex_cap)
        m_counts, ext_counts = _tree_level_counts(tree)

    br_exact = spec.known_branching()
    if br_exact is not None:
        br_lo = br_hi = br_exact
        boundary_tol = tol
    else:
        est = estimate_branching(tree, max(tol, 0.02))
        br_lo, br_hi = est.lo, est.hi
        boundary_tol = max(tol, est.width)

    sum_ev = _sum_evidence(m_counts, p)
    cut_ev = _cutset_evidence(spec, tree, ext_counts, p, depth)
    bnd_ev = _bounded_evidence(ext_counts, p)
    witnesses.update({"branching": [br_lo, br_hi],
                      "partial_sums": sum_ev, "cutsets": cut_ev,
                      "level_cutsets": bnd_ev})

    transient_by_product = p * br_lo > 1.0 + boundary_tol
    recurrent_by_product = p * br_hi < 1.0 - boundary_tol
    on_boundary = (p * br_lo <= 1.0 + boundary_tol
                   and p * br_hi >= 1.0 - boundary_tol)

    if sum_ev["converges"]:
        if transient_by_product:
            return ClassificationReport(
                regime="Inconclusive", p=p, x_star=x_star, branching_lo=br_lo,
                branching_hi=br_hi, branching_exact=br_exact is not None,
                criterion=CRITERION_NONE, tol=tol, witnesses=witnesses,
                notes="sum test converges yet p*br exceeds 1")
        return ClassificationReport(
            regime="PositiveRecurrent", p=p, x_star=x_star, branching_lo=br_lo,
            branching_hi=br_hi, branching_exact=br_exact is not None,
            criterion=CRITERION_SUM, tol=tol, witnesses=witnesses)

    if transient_by_product:
        if cut_ev["decays"]:
            return ClassificationReport(
                regime="Inconclusive", p=p, x_star=x_star, branching_lo=br_lo,
                branching_hi=br_hi, branching_exact=br_exact is not None,
                criterion=CRITERION_NONE, tol=tol, witnesses=witnesses,
                notes="cutset sums vanish yet p*br exceeds 1")
        return ClassificationReport(
            regime="Transient", p=p, x_star=x_star, branching_lo=br_lo,
            branching_hi=br_hi, branching_exact=br_exact is not None,
            criterion=CRITERION_TRANSIENT, tol=tol, witnesses=witnesses)

    # witnessed cutset decay certifies recurrence on its own, even when the
    # product sits inside the boundary band (the criterion quantifies over
    # cutsets, not over the product)
    if cut_ev["decays"] or recurrent_by_product:
        notes = "" if cut_ev["decays"] else (
            "p*br < 1 guarantees vanishing cutset sums; decay not yet visible "
            "at this horizon")
        return ClassificationReport(
            regime="Recurrent", p=p, x_star=x_star, branching_lo=br_lo,
            branching_hi=br_hi, branching_exact=br_exact is not None,
            criterion=CRITERION_CUTSET, tol=tol, witnesses=witnesses, notes=notes)

    if on_boundary:
        notes = ""
        if bnd_ev["bounded"]:
            notes = ("bounded level-cutset sums certify recurrence for this "
                     "instance, though the product criterion alone is silent "
                     "on the boundary")
        return ClassificationReport(
            regime="Boundary", p=p, x_star=x_star, branching_lo=br_lo,
            branching_hi=br_hi, branching_exact=br_exact is not None,
            criterion=CRITERION_BOUNDARY, tol=tol, witnesses=witnesses,
            notes=notes)

    if bnd_ev["bounded"]:
        return ClassificationReport(
            regime="Recurrent", p=p, x_star=x_star, branching_lo=br_lo,
            branching_hi=br_hi, branching_exact=br_exact is not None,
            criterion=CRITERION_BOUNDED, tol=tol, witnesses=witnesses)

    return ClassificationReport(
        regime="Inconclusive", p=p, x_star=x_star, branching_lo=br_lo,
        branching_hi=br_hi, branching_exact=br_exact is not None,
        criterion=CRITERION_NONE, tol=tol, witnesses=witnesses)


# ---------------------------------------------------------------------------
# Walks
# ---------------------------------------------------------------------------

def transition_probs(env: Environment, vertex: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor ids and transition probabilities at a vertex.

    Probabilities are proportional to the conductances of the incident edges,
    C_v above the vertex and C_v * A_c to each child c, so the row is
    [1, A_c, ...] / (1 + sum A_c) (the root, with no edge above it, gives
    [A_c, ...] / sum A_c).  It is built from the children's log A alone,
    shifted by its largest entry before exp, so no weight leaves double
    range; an environment that has not been read draws only those ids.
    """
    tree = env.tree
    if not 0 <= vertex < tree.n_vertices:
        raise ValidationError("vertex out of range")
    kids = tree.children_slice(vertex)
    kid_ids = np.arange(kids.start, kids.stop, dtype=np.int64)
    log_w = env.slice_log_a(kids)
    if vertex == 0:
        ids = kid_ids
        if len(ids) == 0:
            raise ValidationError("vertex 0 has no incident conductance")
    else:
        ids = np.concatenate(([tree.parent[vertex]], kid_ids))
        log_w = np.concatenate(([0.0], log_w))
    weights = np.exp(log_w - log_w.max())
    return ids, weights / weights.sum()


class _KernelCache:
    """Lazily built per-vertex jump tables as plain Python lists (fast steps)."""

    def __init__(self, env: Environment):
        self.env = env
        self.rows: dict[int, tuple[list[int], list[float]]] = {}

    def row(self, v: int) -> tuple[list[int], list[float]]:
        hit = self.rows.get(v)
        if hit is None:
            ids, probs = transition_probs(self.env, v)
            hit = (list(map(int, ids)), list(np.cumsum(probs)))
            self.rows[v] = hit
        return hit


def _step(row: tuple[list[int], list[float]], u: float) -> int:
    ids, cum = row
    for i, edge in enumerate(cum):
        if u < edge:
            return ids[i]
    return ids[-1]


@dataclass
class WalkSummary:
    """Path summary for one walk from the root."""

    steps_requested: int
    steps_taken: int
    returns_to_root: int
    max_depth: int
    exited_truncation: bool
    occupation: np.ndarray
    transition_counts: dict[int, dict[int, int]] | None = None


def simulate_walk(env: Environment, steps: int, seed: int,
                  record_transitions: bool = False) -> WalkSummary:
    """Run the walk from the root for `steps` steps or until it stands on an
    extendable frontier vertex, where the window's kernel is no longer
    faithful (the exit is recorded and the run stops).

    Deterministic for fixed (env, seed).
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    tree = env.tree
    kernel = _KernelCache(env)
    gen = rng.generator(env.seed, _TAG_WALK, seed)
    occupation = np.zeros(tree.n_vertices, dtype=np.int64)
    transitions: dict[int, dict[int, int]] | None = {} if record_transitions else None
    v = 0
    occupation[0] += 1
    returns = 0
    max_depth = 0
    taken = 0
    exited = bool(tree.extendable[0])
    for _ in range(steps):
        if tree.extendable[v]:
            exited = True
            break
        nxt = _step(kernel.row(v), gen.random())
        if transitions is not None:
            transitions.setdefault(v, {})
            transitions[v][nxt] = transitions[v].get(nxt, 0) + 1
        v = nxt
        taken += 1
        occupation[v] += 1
        d = int(tree.depth[v])
        max_depth = max(max_depth, d)
        returns += v == 0
    else:
        exited = exited or bool(tree.extendable[v])
    return WalkSummary(steps_requested=steps, steps_taken=taken,
                       returns_to_root=returns, max_depth=max_depth,
                       exited_truncation=exited, occupation=occupation,
                       transition_counts=transitions)


@dataclass
class EscapeEstimate:
    probability: float
    stderr: float
    successes: int
    trials: int
    exact: float  # conductance identity on the same environment

    def to_json(self) -> dict:
        return {"schema": 1, "probability": self.probability,
                "stderr": self.stderr, "successes": self.successes,
                "trials": self.trials, "exact": self.exact}


def escape_probability_exact(env: Environment, depth: int) -> float:
    """P(reach `depth` before returning to the root), by the network identity:
    conductance to the grounded depth divided by the root's total conductance
    (the sum of the level-1 A).  Neither reads more of the environment than
    the levels down to `depth`."""
    tree = env.tree
    if not 1 <= depth <= tree.truncation_depth:
        raise ValidationError("depth must be in 1..truncation_depth")
    g = effective_conductance(tree, env, ground_depth=depth)
    root_total = float(np.exp(env.level_log_a(1)).sum())
    return g / root_total


def escape_probability(env: Environment, depth: int, trials: int,
                       seed: int) -> EscapeEstimate:
    """Monte Carlo estimate of P(reach `depth` before returning to the root).

    Trial i uses the derived seed (seed, i); the exact network value rides
    along for cross-checking.
    A walk still unresolved after `_STEP_CAP` steps raises ResourceCapError.
    """
    tree = env.tree
    if not 1 <= depth <= tree.truncation_depth:
        raise ValidationError("depth must be in 1..truncation_depth")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    kernel = _KernelCache(env)
    successes = 0
    for t in range(trials):
        gen = rng.generator(env.seed, _TAG_ESCAPE, seed, t)
        v = 0
        for _ in range(_STEP_CAP):
            v = _step(kernel.row(v), gen.random())
            if tree.depth[v] >= depth:
                successes += 1
                break
            if v == 0:
                break
        else:
            raise ResourceCapError(
                f"escape walk {t} took {_STEP_CAP} steps without reaching depth "
                f"{depth} or returning to the root")
    p_hat = successes / trials
    stderr = math.sqrt(max(p_hat * (1 - p_hat), 1.0 / trials) / trials)
    return EscapeEstimate(probability=p_hat, stderr=stderr, successes=successes,
                          trials=trials, exact=escape_probability_exact(env, depth))


# ---------------------------------------------------------------------------
# Flow fixed point on family trees
# ---------------------------------------------------------------------------

@dataclass
class FlowIterationStats:
    iteration: int
    mean_flow: float
    mean_capped: float        # E[min(1, F)]
    max_flow: float
    stderr: float
    predicted_mean: float     # mean-offspring * E[A**x] * previous mean_capped


@dataclass
class GwFlowResult:
    x: float
    mean_offspring: float
    moment: float             # E[A**x]
    rows: list[FlowIterationStats] = field(default_factory=list)

    @property
    def final(self) -> FlowIterationStats:
        return self.rows[-1]

    def rows_as_dicts(self) -> list[dict]:
        return [{"iteration": r.iteration, "mean_flow": r.mean_flow,
                 "mean_capped": r.mean_capped, "max_flow": r.max_flow,
                 "stderr": r.stderr, "predicted_mean": r.predicted_mean}
                for r in self.rows]


def gw_flow_iterate(law: Distribution, offspring: Distribution, x: float,
                    iters: int, samples: int, seed: int) -> GwFlowResult:
    """Population dynamics for the distributional flow recursion
    F = sum over children of A**x * min(1, F_child).

    Starting from F == 1 (a freely fed frontier), each sweep resamples every
    population member from the recursion; the running mean, capped mean, and
    population max track whether flow to infinity survives.  Every sweep also
    reports the predicted mean (mean-offspring * E[A**x] * previous capped
    mean), which the recursion matches in expectation.
    """
    law.require_positive_finite()
    if not 0.0 < x <= 1.0:
        raise ValidationError("the moment exponent must lie in (0, 1]")
    if iters < 1 or samples < 2:
        raise ValidationError("need iters >= 1 and samples >= 2")
    for s in offspring.support:
        if not (s >= 0 and float(s).is_integer()):
            raise ValidationError("offspring support must be nonnegative integers")
    m = offspring.mean
    moment = fractional_moment(law, x)
    pop = np.ones(samples)
    result = GwFlowResult(x=x, mean_offspring=m, moment=moment)
    idx = np.arange(samples, dtype=np.uint64)
    for it in range(1, iters + 1):
        prev_capped = float(np.minimum(pop, 1.0).mean())
        counts = offspring.sample_values(
            rng.derive(seed, _TAG_GW_COUNT, it), idx).astype(np.int64)
        total = int(counts.sum())
        owner = np.repeat(np.arange(samples), counts)
        draws = np.arange(total, dtype=np.uint64)
        ratios = law.sample_values(rng.derive(seed, _TAG_GW_RATIO, it), draws)
        picks = (rng.uniforms(rng.derive(seed, _TAG_GW_PICK, it), draws)
                 * samples).astype(np.int64)
        contrib = ratios**x * np.minimum(pop[picks], 1.0)
        pop = np.bincount(owner, weights=contrib, minlength=samples)
        result.rows.append(FlowIterationStats(
            iteration=it,
            mean_flow=float(pop.mean()),
            mean_capped=float(np.minimum(pop, 1.0).mean()),
            max_flow=float(pop.max()),
            stderr=float(pop.std(ddof=1) / math.sqrt(samples)),
            predicted_mean=m * moment * prev_capped,
        ))
    return result
