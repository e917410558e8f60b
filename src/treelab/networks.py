"""Random environments as electrical and capacitated networks on trees.

Each non-root vertex v carries an i.i.d. transition ratio A_v; the edge above
v gets conductance (or capacity) C_v, the product of A along the root path.
Products are kept in log space because deep products of A leave double range;
the conductance DP converts locally with clamps at exp(+-700).

The truncation's extendable frontier is treated as a single grounded node,
the standard finite approximant of conductance to infinity: values are exact
for the truncation and monotone in depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ratecalc import Distribution
from .trees import Tree, TreeSpec
from . import rng

_TAG_EDGE_VALUES = 0xED6E
_LOG_CLAMP = 700.0


@dataclass
class Environment:
    """Per-edge log ratios and per-vertex log cumulative conductances."""

    tree: Tree
    law: Distribution
    seed: int
    log_a: np.ndarray  # log A_v; entry 0 (root) is 0 by convention
    log_c: np.ndarray  # log C_v = sum of log A along the root path

    @property
    def n_vertices(self) -> int:
        return self.tree.n_vertices


def _edge_log_values(law: Distribution, seed: int, ids: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """log A for the given vertex ids, keyed by (seed, id); into `out` if given."""
    vals = law.sample_values(rng.derive(seed, _TAG_EDGE_VALUES), ids, out=out)
    return np.log(vals, out=vals)


def sample_environment(tree: Tree, law: Distribution, seed: int) -> Environment:
    """Draw i.i.d. ratios A_v keyed by (seed, vertex id).

    Values are independent of traversal order and worker count, and agree on
    the shared prefix across truncation depths.  Laws with mass at 0 or +inf
    are rejected: the regime theory implemented here assumes 0 < A < inf.
    """
    law.require_positive_finite()
    v = tree.n_vertices
    log_a = np.zeros(v)
    if v > 1:
        _edge_log_values(law, seed, np.arange(1, v, dtype=np.uint64), out=log_a[1:])
    return Environment(tree=tree, law=law, seed=seed, log_a=log_a,
                       log_c=tree.sweep_down(log_a))


def conductances(env: Environment, ids=None) -> np.ndarray:
    """Linear-space C_v with log values clamped to +-700 before exp.

    `ids` (an index array or slice) restricts the result to those vertices;
    each value is the same as in the whole-tree array.
    """
    log_c = env.log_c if ids is None else env.log_c[ids]
    return np.exp(np.clip(log_c, -_LOG_CLAMP, _LOG_CLAMP))


def level_conductance_sums(env: Environment) -> np.ndarray:
    """sum of C_v over each level 1..n (index 0 of the result is level 1)."""
    c = conductances(env)
    tree = env.tree
    return np.array([float(c[tree.level_slice(k)].sum())
                     for k in range(1, tree.truncation_depth + 1)])


# ---------------------------------------------------------------------------
# Electrical conductance
# ---------------------------------------------------------------------------

def _conductance_dp(tree: Tree, edge_cond: np.ndarray, ground: np.ndarray) -> float:
    """Series-parallel collapse onto a grounded vertex set.

    ground[v] = True treats v as directly connected to the ground node through
    its own edge; branches that never reach ground contribute 0.
    """
    sub = np.zeros(tree.n_vertices)
    n = tree.truncation_depth
    sub[ground] = edge_cond[ground]
    for k in range(n - 1, 0, -1):
        sl = tree.level_slice(k)
        child_sl = tree.level_slice(k + 1)
        if sl.start == sl.stop:
            continue
        s = np.bincount(tree.parent[child_sl] - sl.start,
                        weights=sub[child_sl],
                        minlength=sl.stop - sl.start)
        c_e = edge_cond[sl]
        with np.errstate(divide="ignore"):
            series = 1.0 / (1.0 / c_e + 1.0 / s)
        keep = ~ground[sl]
        sub[sl] = np.where(keep, np.where(s > 0.0, series, 0.0), sub[sl])
    lvl1 = tree.level_slice(1)
    return float(sub[lvl1].sum())


def effective_conductance(tree: Tree, env: Environment,
                          ground_depth: int | None = None) -> float:
    """Conductance from the root to the grounded frontier, exact for the window.

    By default the ground is the extendable frontier, the proxy for infinity;
    pass `ground_depth` to ground every vertex at that depth instead (used by
    the escape-probability identity, where reaching a given depth is the
    event of interest whether or not the branch continues).
    """
    if env.tree is not tree:
        raise ValidationError("environment was sampled on a different tree")
    if ground_depth is None:
        return _conductance_dp(tree, conductances(env), tree.extendable)
    if not 1 <= ground_depth <= tree.truncation_depth:
        raise ValidationError("ground_depth must be in 1..truncation_depth")
    if ground_depth < tree.truncation_depth:
        from .trees import truncate
        tree = truncate(tree, ground_depth)
        env = Environment(tree=tree, law=env.law, seed=env.seed,
                          log_a=env.log_a[:tree.n_vertices],
                          log_c=env.log_c[:tree.n_vertices])
    ground = np.zeros(tree.n_vertices, dtype=bool)
    ground[tree.level_slice(ground_depth)] = True
    return _conductance_dp(tree, conductances(env), ground)


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

def max_flow(tree: Tree, capacities: np.ndarray) -> float:
    """Max flow from the root to the extendable frontier, exact.

    capacities[v] is the capacity of the edge above v (entry 0 unused).
    Equals the minimum over cutsets of the capacity sum, by max-flow min-cut
    on trees; dead-end branches carry nothing.
    """
    capacities = np.asarray(capacities, dtype=np.float64)
    if capacities.shape != (tree.n_vertices,):
        raise ValidationError("need one capacity per vertex")
    if np.any(capacities[1:] < 0.0):
        raise ValidationError("capacities must be >= 0")
    flow = np.zeros(tree.n_vertices)
    n = tree.truncation_depth
    frontier = tree.extendable
    flow[frontier] = capacities[frontier]
    for k in range(n - 1, 0, -1):
        sl = tree.level_slice(k)
        child_sl = tree.level_slice(k + 1)
        if sl.start == sl.stop:
            continue
        s = np.bincount(tree.parent[child_sl] - sl.start,
                        weights=flow[child_sl],
                        minlength=sl.stop - sl.start)
        flow[sl] = np.where(frontier[sl], flow[sl], np.minimum(capacities[sl], s))
    lvl1 = tree.level_slice(1)
    return float(flow[lvl1].sum())


def capacity_flow(env: Environment) -> float:
    """Max flow with the conductances C_v as channel capacities."""
    return max_flow(env.tree, conductances(env))


def weighted_cut_inf(tree: Tree, env: Environment, w: float) -> float:
    """min over cutsets of sum(w**|v| * C_v), via the max-flow identity.

    This is the exponentially-discounted cut functional whose positivity
    certifies positive conductance; w = 1 reduces to the plain capacity flow.
    """
    if not 0.0 < w <= 1.0:
        raise ValidationError("w must lie in (0, 1]")
    if env.tree is not tree:
        raise ValidationError("environment was sampled on a different tree")
    log_caps = env.log_c + env.tree.depth * math.log(w)
    return max_flow(tree, np.exp(np.clip(log_caps, -_LOG_CLAMP, _LOG_CLAMP)))


# ---------------------------------------------------------------------------
# Homogeneous fast paths (no materialization)
# ---------------------------------------------------------------------------

def homogeneous_constant_conductance(b: int, a: float, depth: int) -> float:
    """Exact conductance of homogeneous(b) with A == a, any depth, O(depth).

    All subtrees at a level are identical, so the series-parallel collapse is
    a scalar recursion on h = (subtree conductance) / (C at the subtree top).
    """
    if b < 1 or depth < 1 or not 0.0 < a < math.inf:
        raise ValidationError("need b >= 1, depth >= 1, 0 < a < inf")
    h = a  # frontier: the edge alone
    for _ in range(depth - 1):
        s = b * h
        h = a * s / (1.0 + s)
    return b * h


def homogeneous_conductance(spec: TreeSpec, law: Distribution, depth: int,
                            seed: int) -> float:
    """Exact per-seed conductance of a homogeneous truncation, one level resident.

    Identical to effective_conductance on the materialized tree (same vertex
    ids, same keyed draws) but holding only two levels of values at a time, so
    depths beyond the materialization budget remain reachable when b**depth
    values fit in memory level by level.
    """
    if spec.kind != "homogeneous":
        raise ValidationError("streaming conductance needs a homogeneous spec")
    law.require_positive_finite()
    b = spec.b
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    offsets = np.cumsum([0] + [b**k for k in range(depth + 1)])

    def level_a(k: int) -> np.ndarray:
        ids = np.arange(offsets[k], offsets[k + 1], dtype=np.uint64)
        return np.exp(_edge_log_values(law, seed, ids))

    # h is the subtree conductance normalized by the conductance at its top,
    # so only per-edge ratios enter and no cumulative products are needed
    h = level_a(depth)
    for k in range(depth - 1, 0, -1):
        s = h.reshape(-1, b).sum(axis=1)
        h = level_a(k) * s / (1.0 + s)
    return float(h.sum())
