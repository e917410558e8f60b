"""Cutset minima and branching-number estimates by DP and bisection.

The branching number is the infimum of lambda such that cutset sums
sum(lambda**-|v|) can be driven to zero.  On a truncation the cutset minimum
is an exact leaf-to-root DP in log space, `log_min_cut`, which with other
weights also gives the flows of `networks`.  The branching number itself is
a limit notion, so it is reported as an interval estimated from finite-depth
decay behavior and documented as such.
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


_LOWEST = np.finfo(np.float64).min  # the most negative double


def group_logsumexp(x: np.ndarray, group: np.ndarray, m: int) -> np.ndarray:
    """log of the sums of exp(x) over the m groups (-inf for an empty sum or
    a group of -inf values); a new array, x is left as it is.

    Each group is shifted by its max, which starts from the lowest double
    rather than -inf, so an all -inf group gives -inf with no inf - inf.
    """
    top = np.full(m, _LOWEST)
    np.maximum.at(top, group, x)
    w = top[group]
    np.exp(np.subtract(x, w, out=w), out=w)
    sums = np.bincount(group, weights=w, minlength=m)
    with np.errstate(divide="ignore"):
        return np.add(top, np.log(sums, out=sums), out=sums)


def log_min_cut(tree: Tree, level_log_weight) -> float:
    """log of the minimum over cutsets of sum(exp(w_v)) (-inf for trees with
    no extendable frontier), by one leaf-to-root DP in log space.

    `level_log_weight(k)` gives w over level k: a scalar when every vertex of
    the level weighs the same (cutsets: w = -k log lambda), else an array over
    the level (flows: w = log C_v).  w may be -inf (weight 0), not +inf or
    NaN.  By max-flow min-cut on trees this is also the max flow with
    capacities exp(w_v).

    The DP climbs leaf to root holding one level at a time: the values of the
    alive vertices (those with extendable lineage) of the level below, in id
    order.  With a scalar weight every alive depth-n vertex costs the same
    c_n, so the first step needs no per-child float work: with exp(0) == 1
    and a sum of ones exact, a depth-(n-1) parent's children total c_n +
    log(#alive children) bit for bit.  Other steps sum each parent's
    children with `group_logsumexp`, children in id order: per alive vertex,
    the float operations of a DP over whole-tree arrays.
    """
    alive = extendable_lineage(tree)
    if not alive[0]:
        return -math.inf
    n = tree.truncation_depth
    if n == 0:
        raise ValidationError("a depth-0 truncation has no cutsets")

    sizes = tree.level_sizes()

    def alive_only(k: int, vals: np.ndarray) -> np.ndarray:
        live = alive[tree.level_slice(k)]
        return vals if len(vals) == np.count_nonzero(live) else vals[live]

    def alive_parents(k: int) -> np.ndarray:
        """Level-(k-1) offsets of the parents of level k's alive vertices."""
        sl = tree.level_slice(k)
        return alive_only(k, tree.parent[sl] - int(tree.level_offsets[k - 1]))

    def alive_values(k: int, child_total: np.ndarray) -> np.ndarray:
        """min(own weight, children's total) at level k, alive vertices only."""
        return alive_only(k, np.minimum(level_log_weight(k), child_total,
                                        out=child_total))

    w_n = level_log_weight(n)
    if np.ndim(w_n) == 0:
        if n == 1:
            vals = np.full(np.count_nonzero(alive[tree.level_slice(1)]), w_n)
        else:
            counts = np.bincount(alive_parents(n), minlength=int(sizes[n - 1]))
            with np.errstate(divide="ignore"):
                vals = alive_values(n - 1, w_n + np.log(counts))
        top = n - 2
    else:
        vals = alive_only(n, w_n)
        top = n - 1
    for k in range(top, 0, -1):
        vals = alive_values(k, group_logsumexp(vals, alive_parents(k + 1),
                                               int(sizes[k])))

    mx = float(vals.max())
    if mx == -math.inf:
        return mx  # every cut has weight 0
    return mx + math.log(float(np.exp(vals - mx).sum()))


def log_cutset_min(tree: Tree, lam: float) -> float:
    """log of the cutset minimum of sum(lam**-|v|) (-inf for trees with no
    extendable frontier): `log_min_cut` with the level weight -k log(lam).

    The DP runs entirely in log space, so deep thin trees cannot underflow.
    """
    if not lam > 0.0:
        raise ValidationError("lambda must be positive")
    log_lam = math.log(lam)
    return log_min_cut(tree, lambda k: -k * log_lam)


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
_FLOOR = 1.0  # every infinite tree branches at >= 1: unit cutset sums are >= 1
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

    lo = _FLOOR
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

    # de-biased estimates from the decay rate at two supercritical probes,
    # kept at or above the floor
    estimates = [probe * _decay_rate(deep, half, probe)
                 for probe in (hi + tol, 1.5 * hi + 0.5)]
    lo_est = max(_FLOOR, min(estimates) - 0.5 * tol)
    hi_est = max(_FLOOR, max(estimates) + 0.5 * tol)
    wide = (hi_est - lo_est) > 0.5
    return BranchingEstimate(lo_est, hi_est, inconclusive=wide,
                             note="interval wider than 0.5" if wide else "")
