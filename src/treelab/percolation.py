"""Bernoulli percolation on trees, plus the threshold percolations that drive
the regime and transit-rate arguments on the k-level contraction.

Survival to the extendable frontier satisfies an exact per-vertex recursion
f(v) = 1 - prod_children (1 - q f(child)); homogeneous and spine generators
admit a scalar form of it, so exact survival is available at depths far past
any materialization budget.  The threshold percolations keep a contracted
edge when its k-step segment is good (product of ratios above y**k, or sum of
times below k*y) with every single step moderate; ties sit on the kept side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fpp import PassageSample
from .networks import Environment
from .trees import Tree, TreeSpec, build_truncation, contract_k
from . import rng

_TAG_PERC = 0x9E5C
_TAG_TRIAL = 0x721A
_TIE_TOL = 1e-12


# ---------------------------------------------------------------------------
# Bernoulli percolation
# ---------------------------------------------------------------------------

def _survival_scalar_homogeneous(b: int, q: float, depth: int) -> float:
    f = 1.0
    for _ in range(depth):
        f = 1.0 - (1.0 - q * f) ** b
    return f


def survival_probability(spec: TreeSpec, q: float, depth: int) -> float:
    """Exact probability that q-percolation connects the root to depth `depth`.

    "Connects" means an open path to an extendable frontier vertex; dead-end
    leaves do not count.  Homogeneous and spine specs use the scalar level
    recursion (any depth); family and explicit specs materialize the
    truncation and run the recursion per vertex.
    """
    if not 0.0 <= q <= 1.0:
        raise ValidationError("q must lie in [0, 1]")
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    if depth == 0:
        return 1.0
    if spec.kind == "homogeneous":
        return _survival_scalar_homogeneous(spec.b, q, depth)
    if spec.kind == "spine_with_leaves":
        return q**depth  # leaf bundles are dead ends; only the spine counts
    tree = build_truncation(spec, depth)
    return survival_probability_tree(tree, q)


def survival_probability_tree(tree: Tree, q: float) -> float:
    """The exact survival recursion on a materialized truncation."""
    if not 0.0 <= q <= 1.0:
        raise ValidationError("q must lie in [0, 1]")
    f = tree.extendable.astype(np.float64)
    for k in range(tree.truncation_depth, 0, -1):
        with np.errstate(divide="ignore"):
            logs = np.log1p(-q * f[tree.level_slice(k)])
        f[tree.level_slice(k - 1)] = 1.0 - np.exp(tree.child_sums(k, logs))
    return float(f[0])


@dataclass
class PercolationSample:
    """One realized edge percolation on a materialized truncation."""

    tree: Tree
    q: float
    seed: int
    open_edges: np.ndarray   # bool per vertex: is the edge above it open
    reached: np.ndarray      # bool per vertex: open path from the root
    survived: bool           # some extendable frontier vertex reached
    reached_depth: int


def _propagate(tree: Tree, open_edges: np.ndarray) -> tuple[np.ndarray, bool]:
    """Vertices joined to the root by open edges (one AND-sweep down the
    levels), and whether an extendable frontier vertex is among them."""
    reached = tree.sweep_down(np.concatenate(([True], open_edges[1:])), np.logical_and)
    return reached, bool((reached & tree.extendable).any())


def percolate_sample(tree: Tree, q: float, seed: int) -> PercolationSample:
    """Draw one open-edge subgraph keyed by (seed, vertex id)."""
    if not 0.0 <= q <= 1.0:
        raise ValidationError("q must lie in [0, 1]")
    v = tree.n_vertices
    open_edges = np.zeros(v, dtype=bool)
    if v > 1:
        u = rng.uniforms(rng.derive(seed, _TAG_PERC), range(1, v))
        open_edges[1:] = u < q
    reached, survived = _propagate(tree, open_edges)
    deepest = np.flatnonzero(reached)[-1]  # the root is always reached
    return PercolationSample(tree=tree, q=q, seed=seed, open_edges=open_edges,
                             reached=reached, survived=survived,
                             reached_depth=int(tree.depth_of(deepest)))


def survival_monte_carlo(spec: TreeSpec, q: float, depth: int, trials: int,
                         seed: int) -> tuple[float, float]:
    """Monte Carlo twin of survival_probability; returns (estimate, stderr).

    Each trial gets its own derived seed, so results are independent of
    chunking.  Homogeneous specs use the frontier-count chain (the open
    cluster's level sizes form a branching process with binomial offspring),
    which is exact in distribution and reaches depths where the open cluster,
    let alone the tree, could never be materialized.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    hits = 0
    if spec.kind == "homogeneous":
        b = spec.b
        for t in range(trials):
            gen = rng.generator(seed, _TAG_TRIAL, t)
            z = 1
            for _ in range(depth):
                z = int(gen.binomial(b * z, q))
                if z == 0:
                    break
            hits += z > 0
    else:
        tree = build_truncation(spec, depth)
        for t in range(trials):
            hits += percolate_sample(tree, q, rng.derive(seed, _TAG_TRIAL, t)).survived
    p_hat = hits / trials
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / trials) / trials)
    return p_hat, stderr


# ---------------------------------------------------------------------------
# Threshold percolations on the k-level contraction
# ---------------------------------------------------------------------------

@dataclass
class ProofPercolation:
    """A realized threshold percolation on the contracted tree."""

    contracted: Tree
    open_edges: np.ndarray   # bool per contracted vertex (edge above it)
    reached: np.ndarray
    survived: bool
    q_hat: float             # empirical edge-retention rate
    q_hat_stderr: float      # binomial proxy; sibling edges are dependent
    n_edges: int


def _segment_folds(tree: Tree, ctree: Tree, per_vertex: np.ndarray, k: int,
                   extreme) -> tuple[np.ndarray, np.ndarray]:
    """Each contracted edge's k-step segment total of a per-edge value and
    its `extreme` (np.minimum or np.maximum), in one climb from the bottom
    by `tree.climb`, so a `HomogeneousLevels` source builds no `parent`.
    A climb past the root stays at -1, where clip mode reads the root's 0."""
    cur = ctree.source_vertices
    total = per_vertex[cur]
    ext = total.copy()
    step = np.empty_like(total)
    for _ in range(k - 1):
        cur = tree.climb(cur)
        np.take(per_vertex, cur, out=step, mode="clip")
        total += step
        extreme(ext, step, out=ext)
    return total, ext


def _proof_result(ctree: Tree, kept: np.ndarray) -> ProofPercolation:
    """The percolation that opens each contracted edge where `kept` holds
    (the root's entry is ignored), with its retention rate."""
    nonroot = ctree.source_vertices > 0
    open_edges = kept & nonroot
    reached, survived = _propagate(ctree, open_edges)
    n_edges = int(nonroot.sum())
    q_hat = float(open_edges[nonroot].mean()) if n_edges else math.nan
    stderr = math.sqrt(max(q_hat * (1 - q_hat), 1.0 / n_edges) / n_edges) \
        if n_edges else math.nan
    return ProofPercolation(contracted=ctree, open_edges=open_edges,
                            reached=reached, survived=survived,
                            q_hat=q_hat, q_hat_stderr=stderr, n_edges=n_edges)


def proof_percolation_rwre(env: Environment, k: int, y: float,
                           eps: float) -> ProofPercolation:
    """Keep a contracted edge iff its segment's ratio product is at least y**k
    and every single ratio on the segment is at least eps.

    The retention events of edges with distinct preceding vertices are
    independent; siblings share their top ratios, which is exactly the
    dependence structure the contraction argument allows.
    """
    if not 0.0 < y <= 1.0:
        raise ValidationError("y must lie in (0, 1]")
    if not 0.0 < eps < math.inf:
        raise ValidationError("eps must lie in (0, inf)")
    tree = env.tree
    ctree = contract_k(tree, k)
    log_prod, min_a = _segment_folds(tree, ctree, env.log_a, k, np.minimum)
    return _proof_result(ctree, (log_prod >= k * math.log(y) - _TIE_TOL)
                         & (min_a >= math.log(eps) - _TIE_TOL))


def proof_percolation_fpp(sample: PassageSample, k: int, y: float,
                          big_m: float) -> ProofPercolation:
    """Keep a contracted edge iff its segment's time sum is at most k*y and
    every single edge time on the segment is at most big_m."""
    if not 0.0 <= y < math.inf:
        raise ValidationError("y must be finite and >= 0")
    if not 0.0 <= big_m < math.inf:
        raise ValidationError("the per-edge bound must be finite and >= 0")
    tree = sample.tree
    ctree = contract_k(tree, k)
    seg_sum, max_x = _segment_folds(tree, ctree, sample.x, k, np.maximum)
    return _proof_result(ctree, (seg_sum <= k * y + _TIE_TOL)
                         & (max_x <= big_m + _TIE_TOL))
