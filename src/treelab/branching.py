"""Cutset minima and branching-number estimates by DP and bisection.

The branching number is the infimum of lambda such that cutset sums
sum(lambda**-|v|) can be driven to zero.  On a truncation the cutset minimum
is an exact leaf-to-root DP; the branching number itself is a limit notion,
so it is reported as an interval estimated from finite-depth decay behavior
and documented as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .trees import Tree, TreeSpec, build_truncation, extendable_lineage, truncate


class CutsetValue(float):
    """A float carrying a flag for trees with no extendable frontier."""

    finite_tree: bool

    def __new__(cls, value: float, finite_tree: bool = False):
        obj = super().__new__(cls, value)
        obj.finite_tree = finite_tree
        return obj


def log_cutset_min(tree: Tree, lam: float) -> float:
    """log of the cutset minimum (-inf for trees with no extendable frontier).

    The DP runs entirely in log space, so deep thin trees cannot underflow.
    It climbs leaf to root holding one level at a time: the values of the
    alive vertices (those with extendable lineage) of the level below, in id
    order.  Every alive depth-n vertex costs exactly c_n = -n log(lam), so the
    first step needs no per-child float work: with exp(0) == 1 and a sum of
    ones exact, a depth-(n-1) parent's children total c_n + log(#alive
    children) bit for bit.  Deeper steps take each parent's max with
    `np.maximum.at` and sum exp(child - max) with a weighted `np.bincount`,
    children in id order: per alive vertex, the float operations of a DP
    over whole-tree arrays.
    """
    if not lam > 0.0:
        raise ValidationError("lambda must be positive")
    alive = extendable_lineage(tree)
    if not alive[0]:
        return -math.inf
    n = tree.truncation_depth
    if n == 0:
        raise ValidationError("a depth-0 truncation has no cutsets")
    log_lam = math.log(lam)

    sizes = tree.level_sizes()

    def alive_parents(k: int) -> np.ndarray:
        """Level-(k-1) offsets of the parents of level k's alive vertices."""
        sl = tree.level_slice(k)
        local = tree.parent[sl] - int(tree.level_offsets[k - 1])
        live = alive[sl]
        return local if len(local) == np.count_nonzero(live) else local[live]

    def alive_values(k: int, child_total: np.ndarray) -> np.ndarray:
        """min(own cost, children's total) at level k, alive vertices only."""
        vals = np.minimum(-k * log_lam, child_total, out=child_total)
        live = alive[tree.level_slice(k)]
        return vals if len(vals) == np.count_nonzero(live) else vals[live]

    if n == 1:
        vals = np.full(np.count_nonzero(alive[tree.level_slice(1)]), -log_lam)
    else:
        counts = np.bincount(alive_parents(n), minlength=int(sizes[n - 1]))
        with np.errstate(divide="ignore"):
            vals = alive_values(n - 1, -n * log_lam + np.log(counts))
    for k in range(n - 2, 0, -1):
        local = alive_parents(k + 1)
        mx = np.full(int(sizes[k]), -np.inf)
        np.maximum.at(mx, local, vals)
        w = mx[local]
        np.exp(np.subtract(vals, w, out=w), out=w)
        sums = np.bincount(local, weights=w, minlength=len(mx))
        with np.errstate(divide="ignore"):
            vals = alive_values(k, np.add(mx, np.log(sums, out=sums), out=sums))

    mx = float(vals.max())
    return mx + math.log(float(np.exp(vals - mx).sum()))


def cutset_min(tree: Tree, lam: float) -> CutsetValue:
    """min over cutsets of sum(lam**-|v|), exact, by leaf-to-root DP.

    Cutsets are antichains separating the root from every extendable frontier
    vertex; dead-end branches impose no constraint.  Trees without any
    extendable frontier have no constraint at all: the value is 0 and the
    result's `finite_tree` flag is set.
    """
    alive_root = extendable_lineage(tree)[0]
    if not alive_root:
        # keep lambda validation consistent with the log variant
        if not lam > 0.0:
            raise ValidationError("lambda must be positive")
        return CutsetValue(0.0, finite_tree=True)
    return CutsetValue(math.exp(log_cutset_min(tree, lam)), finite_tree=False)


@dataclass
class BranchingEstimate:
    """An interval estimate of the branching number of a spec.

    The number is defined through a depth limit no truncation can take, so
    [lo, hi] is a finite-depth estimate whose reliability grows with
    max_depth; `inconclusive` is set when the evidence does not pin it down.
    """

    lo: float
    hi: float
    inconclusive: bool = False
    note: str = ""

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def to_json(self) -> dict:
        return {"schema": 1, "lo": self.lo, "hi": self.hi,
                "inconclusive": self.inconclusive, "note": self.note}


def growth_rate(tree: Tree) -> float:
    """M_n**(1/n) at the truncation depth (1.0 for a depth-0 tree)."""
    n = tree.truncation_depth
    if n == 0:
        return 1.0
    m_n = int(tree.level_sizes()[-1])
    if m_n == 0:
        return 0.0
    return m_n ** (1.0 / n)


_DECAY_FACTOR = 0.5
_MAX_LAMBDA = 2.0**40


def _decay_rate(deep: Tree, half: Tree, lam: float) -> float:
    """Per-level ratio of the cutset minimum between depth n//2 and depth n."""
    steps = deep.truncation_depth - half.truncation_depth
    return math.exp((log_cutset_min(deep, lam) - log_cutset_min(half, lam)) / steps)


def _check_estimate_args(max_depth: int, tol: float) -> None:
    if max_depth < 4:
        raise ValidationError("max_depth must be >= 4")
    if not tol > 0.0:
        raise ValidationError("tol must be positive")


def branching_number(spec: TreeSpec, max_depth: int, tol: float, *,
                     vertex_cap: int | None = None) -> BranchingEstimate:
    """`estimate_branching` on the spec's depth-`max_depth` truncation.

    Arguments are checked before anything is built.
    """
    _check_estimate_args(max_depth, tol)
    return estimate_branching(build_truncation(spec, max_depth, vertex_cap=vertex_cap),
                              tol)


def estimate_branching(deep: Tree, tol: float) -> BranchingEstimate:
    """Interval estimate of the branching number from cutset-decay behavior
    on a built truncation (depth >= 4).

    A lambda is judged past the branching number when the cutset minimum at
    the truncation depth n falls below half its value at n // 2; bisection
    brackets that switch-over.  The raw switch-over lambda overshoots by the
    threshold factor 2**(2/n), so the reported interval instead comes from
    the measured per-level decay rate at supercritical probes: at lambda > br
    the cutset minimum shrinks by br/lambda per level, which recovers br
    exactly on regular trees.  The half-depth values use a prefix of the same
    truncation, so conditioned family trees stay coupled.  Each probe is two
    `log_cutset_min` calls; callers that already hold the truncation pass it
    here rather than building it again.
    """
    _check_estimate_args(deep.truncation_depth, tol)
    if not deep.has_extendable_frontier:
        return BranchingEstimate(0.0, 0.0, inconclusive=False,
                                 note="finite tree (no extendable frontier)")
    half = truncate(deep, deep.truncation_depth // 2)

    def decayed(lam: float) -> bool:
        steps = deep.truncation_depth - half.truncation_depth
        return _decay_rate(deep, half, lam) ** steps < _DECAY_FACTOR

    lo = 1.0  # every infinite tree branches at >= 1: unit cutset sums are >= 1
    hi = max(2.0, growth_rate(deep) + 1.0)
    while not decayed(hi):
        hi *= 2.0
        if hi > _MAX_LAMBDA:
            return BranchingEstimate(lo, hi, inconclusive=True,
                                     note="no decay found up to the lambda cap")
    while hi - lo > min(tol, 0.01):
        mid = 0.5 * (lo + hi)
        if decayed(mid):
            hi = mid
        else:
            lo = mid

    # de-biased estimates from the decay rate at two supercritical probes
    estimates = [probe * _decay_rate(deep, half, probe)
                 for probe in (hi + tol, 1.5 * hi + 0.5)]
    lo_est = min(estimates) - 0.5 * tol
    hi_est = max(estimates) + 0.5 * tol
    wide = (hi_est - lo_est) > 0.5
    return BranchingEstimate(lo_est, hi_est, inconclusive=wide,
                             note="interval wider than 0.5" if wide else "")
