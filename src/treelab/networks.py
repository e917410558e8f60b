"""Random environments as electrical and capacitated networks on trees.

Each non-root vertex v carries an i.i.d. transition ratio A_v; the edge above
v gets conductance (or capacity) C_v, the product of A along the root path.
An `Environment` is keyed by (tree, law, seed): every A_v is a pure function
of (seed, v), so its arrays are filled on first read, and code that needs
only some levels reads those (`fpp.PassageSample` is the same class over
passage times).  Products are kept in log space: deep ones leave double range.

Conductance never forms C: it runs the ratio recursion h = A * s / (1 + s)
from the grounded level to the root, one level at a time, on the ratios A
alone, in doubles, or on log h where an h leaves double range.  On a
homogeneous truncation (`trees.HomogeneousLevels`, the b-ary layout by
arithmetic) it reads no vertex array: each level's sums over children
(`child_sums`) are b strided adds instead of a scatter through parent ids,
and the whole frontier is grounded.  Levels are drawn straight from the
law's image tables (`Distribution.image_table`): log A, and for the double
path exp(log A), which has the bits of exp taken of a stored log A, so no
level takes a log or exp pass.  Flows are min-cuts over sum(C_v), computed
on log C by the leaf-to-root DP of `branching.log_min_cut` and
exponentiated once, so they are exact over the double range: 0.0 means a
flow below it, inf one above it.

The truncation's extendable frontier is treated as a single grounded node,
the standard finite approximant of conductance to infinity: values are exact
for the truncation and monotone in depth.
"""

from __future__ import annotations

import math

import numpy as np

from .branching import group_logsumexp, log_min_cut
from .errors import ValidationError
from .ratecalc import Distribution
from .trees import HomogeneousLevels, Tree, TreeSpec
from . import rng

_TAG_EDGE_VALUES = 0xED6E
_TINY = np.finfo(np.float64).tiny  # the smallest normal double


def _exp_log(a: np.ndarray) -> np.ndarray:
    """exp(log A), the double path's ratio: the bits of exp of a stored log A.
    A itself would differ, since exp(log a) != a for some doubles."""
    return np.exp(np.log(a))


class Environment:
    """Per-edge values and their root-path sums for one (tree, law, seed):
    here log A_v and log C_v; a `fpp.PassageSample` is the same object over
    times X_v and sums S_v.

    Values are drawn on first read.  Sums are filled on first read, from
    the values if they are held (or were passed in), else from a fresh draw
    swept in place in their own buffer, so reading one array never fills
    the other.  Arrays passed to the constructor are used as given.  Reads
    from several threads at once may each compute an array, with the same
    values.  The level reads (`level_log_a`, `slice_log_a`) use no vertex
    array of the tree.
    """

    _tag = _TAG_EDGE_VALUES
    _image = np.log  # of the drawn value; None keeps the value itself

    def __init__(self, tree: Tree, law: Distribution, seed: int,
                 log_a: np.ndarray | None = None, log_c: np.ndarray | None = None):
        self.tree = tree
        self.law = law
        self.seed = seed
        self._log_a = log_a
        self._log_c = log_c
        self._key = rng.derive(seed, self._tag)

    @property
    def n_vertices(self) -> int:
        return self.tree.n_vertices

    def _draw(self) -> np.ndarray:
        """The values of every vertex, keyed by (seed, id); 0 at the root."""
        v = self.tree.n_vertices
        vals = np.zeros(v)
        if v > 1:
            self.law.sample_values(self._key, range(1, v), out=vals[1:],
                                   image=self._image)
        return vals

    @property
    def log_a(self) -> np.ndarray:
        """log A_v; entry 0 (root) is 0 by convention."""
        if self._log_a is None:
            self._log_a = self._draw()
        return self._log_a

    @property
    def log_c(self) -> np.ndarray:
        """log C_v = sum of log A along the root path."""
        if self._log_c is None:
            fresh = self._log_a is None  # then the draw is summed in place
            vals = self._draw() if fresh else self._log_a
            self._log_c = self.tree.sweep_down(vals, out=vals if fresh else None)
        return self._log_c

    def level_log_a(self, k: int, exp: bool = False) -> np.ndarray:
        """log A_v over level k >= 1, or exp(log A_v) if `exp` (see
        `slice_log_a`)."""
        return self.slice_log_a(self.tree.level_slice(k), exp)

    def slice_log_a(self, sl: slice, exp: bool = False) -> np.ndarray:
        """log A_v over a slice of non-root ids: a view of `log_a` once it has
        been read, else drawn for those ids alone with the same values.  With
        `exp`, exp(log A_v) in a new array instead."""
        if self._log_a is not None:
            return np.exp(self._log_a[sl]) if exp else self._log_a[sl]
        return self.law.sample_values(self._key, range(sl.start, sl.stop),
                                      image=_exp_log if exp else self._image)


def sample_environment(tree: Tree, law: Distribution, seed: int) -> Environment:
    """The environment of i.i.d. ratios A_v keyed by (seed, vertex id).

    Values are independent of traversal order and worker count, and agree on
    the shared prefix across truncation depths.  Laws with mass at 0 or +inf
    are rejected: the regime theory implemented here assumes 0 < A < inf.
    Nothing is drawn until the environment is read.
    """
    return Environment(tree, law.require_positive_finite(), seed)


# ---------------------------------------------------------------------------
# Electrical conductance
# ---------------------------------------------------------------------------

def _ratio_step(a, s):
    """h = A * s / (1 + s): the conductance of a subtree, its top edge
    included, over the conductance at the subtree's parent, from the ratio A
    of the top edge and the sum s of the children's h (s = 0: no current).

    Dividing first keeps A * s from overflowing while h is in range.  On
    arrays the step works in place, with one temporary: s is overwritten and
    h is returned in a's storage.
    """
    t = 1.0 + s
    s /= t
    a *= s
    return a


def effective_conductance(tree: Tree, env: Environment,
                          ground_depth: int | None = None) -> float:
    """Conductance from the root to the grounded frontier, exact for the window.

    By default the ground is the extendable frontier, the proxy for infinity;
    pass `ground_depth` to ground every vertex at that depth instead (used by
    the escape-probability identity, where reaching a given depth is the
    event of interest whether or not the branch continues).

    The recursion h = A * (s / (1 + s)) runs from the grounded level to the
    root, reading one level of A at a time, and never forms C, so an
    environment that has not been read stays unread.  It runs in doubles; if
    an h leaves double range (an underflow where current flows, or an
    overflow), it runs again on log h, accurate to a few ulps of |log h|, so
    0.0 means no current or a value below double range, and inf a value
    above it.
    """
    if env.tree is not tree:
        raise ValidationError("environment was sampled on a different tree")
    if ground_depth is None:
        depth = tree.truncation_depth
        if depth < 1:
            raise ValidationError("conductance needs truncation depth >= 1")
        grounded = tree.frontier_mask()  # None: the whole frontier level
    else:
        if not 1 <= ground_depth <= tree.truncation_depth:
            raise ValidationError("ground_depth must be in 1..truncation_depth")
        depth, grounded = ground_depth, None
    with np.errstate(over="ignore", invalid="ignore"):
        h = env.level_log_a(depth, True)
        if grounded is not None:
            h[~grounded] = 0.0
        for k in range(depth - 1, 0, -1):
            s = tree.child_sums(k + 1, h)
            del h  # the child level is not needed while level k is drawn
            no_current = np.count_nonzero(s == 0.0)
            h = _ratio_step(env.level_log_a(k, True), s)
            del s
            if np.count_nonzero(h < _TINY) > no_current:
                break  # an h underflowed where current flows
        else:
            g = float(h.sum())
            if math.isfinite(g):
                return g
    log_h = env.level_log_a(depth)
    if grounded is not None:
        log_h = np.where(grounded, log_h, -np.inf)
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(depth - 1, 0, -1):
            group, m = tree.level_parents(k + 1)
            log_h = env.level_log_a(k) - np.logaddexp(
                0.0, -group_logsumexp(log_h, group, m))
        return float(np.exp(group_logsumexp(log_h, np.zeros(len(log_h), np.intp), 1)[0]))


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

def _exp(log_value: float) -> float:
    """exp of a log flow: 0.0 below double range, inf above it."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_value))


def max_flow(tree: Tree, capacities: np.ndarray) -> float:
    """Max flow from the root to the extendable frontier, exact.

    capacities[v] is the capacity of the edge above v (entry 0 unused).
    Equals the minimum over cutsets of the capacity sum, by max-flow min-cut
    on trees; dead-end branches carry nothing.  The min-cut runs on log
    capacities, an infinite capacity as the largest double.
    """
    capacities = np.asarray(capacities, dtype=np.float64)
    if capacities.shape != (tree.n_vertices,):
        raise ValidationError("need one capacity per vertex")
    if not np.all(capacities[1:] >= 0.0):
        raise ValidationError("capacities must be >= 0 and not NaN")
    # log(0) is -inf, a zero capacity; entry 0 is never read and may be anything
    with np.errstate(divide="ignore", invalid="ignore"):
        log_caps = np.minimum(np.log(capacities), np.finfo(np.float64).max)
    return _exp(log_min_cut(tree, lambda k: log_caps[tree.level_slice(k)]))


def capacity_flow(env: Environment) -> float:
    """Max flow with the conductances C_v as channel capacities."""
    tree = env.tree
    return _exp(log_min_cut(tree, lambda k: env.log_c[tree.level_slice(k)]))


def weighted_cut_inf(tree: Tree, env: Environment, w: float) -> float:
    """min over cutsets of sum(w**|v| * C_v), the max flow with those
    capacities.

    This is the exponentially-discounted cut functional whose positivity
    certifies positive conductance; w = 1 reduces to the plain capacity flow.
    """
    if not 0.0 < w <= 1.0:
        raise ValidationError("w must lie in (0, 1]")
    if env.tree is not tree:
        raise ValidationError("environment was sampled on a different tree")
    log_w = math.log(w)
    return _exp(log_min_cut(
        tree, lambda k: env.log_c[tree.level_slice(k)] + k * log_w))


# ---------------------------------------------------------------------------
# Homogeneous fast paths (no materialization)
# ---------------------------------------------------------------------------

def homogeneous_constant_conductance(b: int, a: float, depth: int) -> float:
    """Exact conductance of homogeneous(b) with A == a, any depth, O(depth).

    All subtrees at a level are identical, so the ratio recursion of
    `effective_conductance` is one scalar per level.
    """
    if b < 1 or depth < 1 or not 0.0 < a < math.inf:
        raise ValidationError("need b >= 1, depth >= 1, 0 < a < inf")
    if b * a == math.inf:
        return math.inf  # then h == a on every level: the top edges alone
    h = a  # frontier: the edge alone
    for _ in range(depth - 1):
        h = _ratio_step(a, b * h)
    return b * h


def homogeneous_conductance(spec: TreeSpec, law: Distribution, depth: int,
                            seed: int) -> float:
    """Exact per-seed conductance of a homogeneous truncation, one level resident.

    `effective_conductance` over `HomogeneousLevels`, on the same vertex ids
    and keyed draws as the built tree, bit for bit: the environment stays
    unread, so only two levels of values are held at a time and depths beyond
    the materialization budget remain reachable when b**depth values fit in
    memory level by level.  Past 2**60 vertices it raises `ResourceCapError`.
    """
    if spec.kind != "homogeneous":
        raise ValidationError("streaming conductance needs a homogeneous spec")
    levels = HomogeneousLevels(spec.b, depth)
    return effective_conductance(levels, sample_environment(levels, law, seed),
                                 ground_depth=depth)
