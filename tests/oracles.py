"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's optimizers: rates come from
dense grids (step 1e-4 on the optimization variable), tails from binomial
arithmetic, cut minima from exhaustive cutset enumeration or a recursion in
exact rationals, conductance from series-parallel reduction and kernel rows
from conductance ratios, both in exact rationals.  Oracle values are
computed first and frozen into the tests that exercise the real code.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Dense-grid rate functionals
# ---------------------------------------------------------------------------

def frac_moment(support, weights, x: float) -> float:
    """E[A**x] with the 0**0 == 0 and inf**0 == 1 conventions."""
    total = 0.0
    for s, w in zip(support, weights):
        if s == 0.0:
            t = 0.0 if x >= 0 else math.inf
        elif s == math.inf:
            t = 1.0 if x == 0 else (math.inf if x > 0 else 0.0)
        else:
            t = s**x
        total += w * t
    return total


def p_grid(support, weights, step: float = 1e-4) -> tuple[float, float]:
    """min over x in [0, 1] of E[A**x] by dense grid; returns (min, argmin)."""
    xs = np.arange(0.0, 1.0 + step, step)
    vals = np.array([frac_moment(support, weights, float(x)) for x in xs])
    i = int(np.argmin(vals))
    return float(vals[i]), float(xs[i])


def rate_m_grid(support, weights, y: float, x_lo: float = -60.0,
                step: float = 1e-4) -> float:
    """inf over x <= 0 of E[exp(x (X - y))] by dense grid over [x_lo, 0]."""
    s = np.asarray(support, dtype=float)
    w = np.asarray(weights, dtype=float)
    xs = np.arange(x_lo, 0.0 + step, step)
    with np.errstate(over="ignore"):
        vals = np.exp(xs[:, None] * (s - y)[None, :]) @ w
    return float(np.min(vals))


def gamma_grid(support, weights, a: float, theta_hi: float = 60.0,
               step: float = 1e-4) -> float:
    """inf over theta >= 0 of (-a theta + log E[exp(theta X)]) by dense grid."""
    s = np.asarray(support, dtype=float)
    w = np.asarray(weights, dtype=float)
    thetas = np.arange(0.0, theta_hi + step, step)
    shifted = thetas[:, None] * (s - a)[None, :]  # log-space: subtract a*theta inside
    m = shifted.max(axis=1)
    vals = m + np.log(np.exp(shifted - m[:, None]) @ w)
    return float(np.min(vals))


def m_inverse_grid(rate_fn, y_lo: float, y_hi: float, z: float,
                   step: float = 1e-4) -> float:
    """sup{y : m(y) < z} by scanning a dense y grid of a given rate function."""
    best = y_lo
    for y in np.arange(y_lo, y_hi + step, step):
        if rate_fn(float(y)) < z:
            best = float(y)
    return best


# ---------------------------------------------------------------------------
# Exact tails for lattice laws
# ---------------------------------------------------------------------------

def binomial_upper_tail(n: int, k: int, p: float) -> float:
    """P[Bin(n, p) >= k], exact."""
    return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))


def two_point_sum_tail(v0: float, v1: float, p1: float, n: int, a: float) -> float:
    """P[S_n >= n a] for a law on {v0, v1} with P[v1] = p1, by enumeration."""
    total = 0.0
    for k in range(n + 1):  # k copies of v1
        s = k * v1 + (n - k) * v0
        if s >= n * a - 1e-12:
            total += math.comb(n, k) * p1**k * (1 - p1) ** (n - k)
    return total


# ---------------------------------------------------------------------------
# Exhaustive cutsets on tiny trees
# ---------------------------------------------------------------------------

def lineage_by_ancestors(tree) -> list[bool]:
    """Per vertex: whether an extendable vertex lies in its subtree, found by
    climbing from every extendable vertex to the root (no level structure)."""
    alive = [False] * len(tree.parent)
    for v in np.nonzero(tree.extendable)[0]:
        u = int(v)
        while u >= 0 and not alive[u]:
            alive[u] = True
            u = int(tree.parent[u])
    return alive


def _cutset_family(tree, v: int, alive) -> list[list[int]]:
    """All minimal antichains in v's subtree separating v's root path from the
    extendable frontier (each returned cutset may include v itself)."""
    kids = [c for c in range(len(tree.parent)) if tree.parent[c] == v and alive[c]]
    if not kids:
        return [[v]]
    options = [[v]]
    child_families = [_cutset_family(tree, c, alive) for c in kids]
    for combo in itertools.product(*child_families):
        options.append([u for part in combo for u in part])
    return options


def min_cutset_sum(tree, capacities) -> float:
    """min over cutsets of the capacity sum, by exhaustive enumeration.

    Only trees with a handful of vertices are feasible; dead branches impose
    no constraint, matching the cut semantics of the flow recursions.
    """
    from treelab.trees import extendable_lineage

    alive = extendable_lineage(tree)
    if not alive[0]:
        return 0.0
    root_kids = [c for c in range(len(tree.parent)) if tree.parent[c] == 0 and alive[c]]
    best = math.inf
    families = [_cutset_family(tree, c, alive) for c in root_kids]
    for combo in itertools.product(*families):
        cut = [u for part in combo for u in part]
        best = min(best, sum(capacities[u] for u in cut))
    return best


def is_cutset(tree, vertices) -> bool:
    """Whether the id set is an antichain meeting every root-to-extendable path."""
    chosen = set(int(v) for v in vertices)
    if 0 in chosen:
        return False
    for v in chosen:  # antichain: no chosen vertex has a chosen proper ancestor
        u = int(tree.parent[v])
        while u > 0:
            if u in chosen:
                return False
            u = int(tree.parent[u])
    blocked = np.zeros(tree.n_vertices, dtype=bool)
    for k in range(1, tree.truncation_depth + 1):
        sl = tree.level_slice(k)
        ids = np.arange(sl.start, sl.stop)
        blocked[sl] = blocked[tree.parent[sl]] | np.isin(ids, list(chosen))
    return bool(np.all(blocked[tree.extendable]))


def level_cutset(tree, k: int, extendable_only: bool = True) -> np.ndarray:
    """The canonical depth-k cutset (restricted to extendable lineage by
    default, found by `lineage_by_ancestors`)."""
    if not 1 <= k <= tree.truncation_depth:
        raise ValueError("level must be in 1..truncation_depth")
    sl = tree.level_slice(k)
    ids = np.arange(sl.start, sl.stop, dtype=np.int64)
    if extendable_only:
        ids = ids[np.array(lineage_by_ancestors(tree), dtype=bool)[sl]]
    return ids


def log_cutset_min_masked(tree, lam: float) -> float:
    """The cutset DP over whole-tree arrays: a value slot for every vertex,
    every level swept with a mask of its alive children and an explicit
    id array, no closed form for the deepest level.  The float operations on
    each alive vertex are the same as in `branching.log_cutset_min`, so the
    two agree bit for bit; the lineage mask comes from `lineage_by_ancestors`.
    """
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    alive = np.array(lineage_by_ancestors(tree), dtype=bool)
    if not alive[0]:
        return -math.inf
    if tree.truncation_depth == 0:
        raise ValueError("a depth-0 truncation has no cutsets")
    log_lam = math.log(lam)

    # log_val[v] = log cost of the cheapest cutset inside v's subtree that
    # separates the root from v's extendable frontier (v itself allowed)
    log_val = np.full(tree.n_vertices, -np.inf)
    n = tree.truncation_depth
    frontier = tree.extendable
    log_val[frontier] = -tree.depth[frontier] * log_lam

    for k in range(n - 1, 0, -1):
        child_sl = tree.level_slice(k + 1)
        sl = tree.level_slice(k)
        if sl.start == sl.stop:
            continue
        sel = alive[child_sl]
        if not sel.any():
            continue  # nothing below this level carries constraints
        child_ids = np.arange(child_sl.start, child_sl.stop)[sel]
        child_log = log_val[child_ids]
        local = tree.parent[child_ids] - sl.start
        m_k = sl.stop - sl.start
        mx = np.full(m_k, -np.inf)
        np.maximum.at(mx, local, child_log)
        sums = np.bincount(local, weights=np.exp(child_log - mx[local]),
                           minlength=m_k)
        with np.errstate(divide="ignore", invalid="ignore"):
            child_total = np.where(sums > 0, mx + np.log(sums), -np.inf)
        own = -tree.depth[sl] * log_lam
        log_val[sl] = np.where(alive[sl], np.minimum(own, child_total), -np.inf)

    lvl1 = tree.level_slice(1)
    vals = log_val[lvl1][alive[lvl1]]
    mx = float(vals.max())
    return mx + math.log(float(np.exp(vals - mx).sum()))


# ---------------------------------------------------------------------------
# Exact conductance in rationals
# ---------------------------------------------------------------------------

def conductance_exact(tree, a, ground) -> Fraction:
    """Root-to-ground conductance of the tree's network, in exact rationals.

    a[v] is the double A_v (entry 0 unused).  Edge conductances are the exact
    products C_v of A along root paths, reduced by the series and parallel
    laws vertex by vertex from the last id up: ground[v] joins v to the
    ground node through its own edge, and what lies below it is ignored;
    branches that reach no ground carry nothing.
    """
    parent = [int(p) for p in tree.parent]
    n = len(parent)
    c = conductances_exact(tree, a)
    below = [Fraction(0)] * n  # conductance from v to ground through its children
    for v in range(n - 1, 0, -1):
        if ground[v]:
            k = c[v]
        elif below[v] == 0:
            k = Fraction(0)
        else:
            k = 1 / (1 / c[v] + 1 / below[v])
        below[parent[v]] += k
    return below[0]


def conductances_exact(tree, a, w=1) -> list[Fraction]:
    """C_v * w**|v| in exact rationals: C_v the exact product of the doubles
    a (entry 0 unused) along v's root path, w a double or 1."""
    parent = [int(p) for p in tree.parent]
    w = Fraction(w)
    c = [Fraction(1)] * len(parent)
    for v in range(1, len(parent)):  # a parent's id is smaller than its children's
        c[v] = c[parent[v]] * Fraction(float(a[v])) * w
    return c


def min_cut_exact(tree, caps):
    """min over cutsets of the sum of caps, by the leaf-to-root recursion
    val(v) = min(caps[v], sum of the children's val) vertex by vertex from
    the last id up, in exact rationals; an extendable vertex is cut at its
    own edge, dead ends carry nothing.  A cap may be math.inf."""
    parent = [int(p) for p in tree.parent]
    below = [Fraction(0)] * len(parent)  # sum of the children's val
    for v in range(len(parent) - 1, 0, -1):
        val = caps[v] if tree.extendable[v] else min(caps[v], below[v])
        below[parent[v]] += val
    return below[0]


def kernel_row_exact(tree, a, v) -> list[Fraction]:
    """The walk's transition probabilities at v in exact rationals: the
    exact conductances of the edges at v (C_v above it, none at the root;
    C_c to each child c, in id order) over their sum."""
    c = conductances_exact(tree, a)
    weights = [c[v]] if v else []
    weights += [c[u] for u in range(len(c)) if u and tree.parent[u] == v]
    total = sum(weights)
    return [x / total for x in weights]


# ---------------------------------------------------------------------------
# Segment retention probabilities by enumeration
# ---------------------------------------------------------------------------

def retention_product(support, weights, k: int, y: float, eps: float) -> float:
    """P[product of k draws >= y**k and every draw >= eps], by enumeration."""
    total = 0.0
    for combo in itertools.product(range(len(support)), repeat=k):
        prod = 1.0
        w = 1.0
        ok = True
        for i in combo:
            prod *= support[i]
            w *= weights[i]
            if support[i] < eps:
                ok = False
        if ok and prod >= y**k - 1e-12:
            total += w
    return total


def retention_sum(support, weights, k: int, y: float, big_m: float) -> float:
    """P[sum of k draws <= k*y and every draw <= big_m], by enumeration."""
    total = 0.0
    for combo in itertools.product(range(len(support)), repeat=k):
        s = sum(support[i] for i in combo)
        w = math.prod(weights[i] for i in combo)
        if s <= k * y + 1e-12 and all(support[i] <= big_m for i in combo):
            total += w
    return total


# ---------------------------------------------------------------------------
# Keyed sampling by whole-array expressions
# ---------------------------------------------------------------------------

def splitmix_hash(key: int, counters) -> np.ndarray:
    """splitmix64 of key + (counter + 1) * golden, one whole-array expression
    per step (no chunks, no scratch buffers)."""
    c = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(key & 0xFFFFFFFFFFFFFFFF) + (c + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def splitmix_uniforms(key: int, counters) -> np.ndarray:
    """Doubles in [0, 1): the top 53 hash bits times 2**-53."""
    return (splitmix_hash(key, counters) >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def sample_by_searchsorted(law, key: int, counters) -> np.ndarray:
    """Inverse-CDF draws: sorted support at searchsorted(cw, u, "right"), with
    cw the cumulative sorted weights, its last entry pinned to 1."""
    order = np.argsort(np.asarray(law.support, dtype=np.float64))
    support = np.asarray(law.support, dtype=np.float64)[order]
    cw = np.cumsum(np.asarray(law.weights, dtype=np.float64)[order])
    cw[-1] = 1.0
    return support[np.searchsorted(cw, splitmix_uniforms(key, counters), side="right")]


def root_path_sums(parent, edge_vals) -> np.ndarray:
    """out[v] = edge_vals[v] + out[parent[v]] vertex by vertex in id order,
    with the root's own entry left out (levels 0 and 1 keep edge_vals)."""
    out = np.array(edge_vals, dtype=np.float64)
    for v in range(1, len(parent)):
        if parent[v] > 0:
            out[v] = out[v] + out[parent[v]]
    return out


def _unxorshift(y: np.ndarray, s: int) -> np.ndarray:
    """Inverse of x -> x ^ (x >> s) on uint64."""
    x = y.copy()
    for _ in range(64 // s + 1):
        x = y ^ (x >> np.uint64(s))
    return x


def counters_for_mantissas(key: int, mantissas, low_bits: int = 0) -> np.ndarray:
    """Counters c with (splitmix_hash(key, c) >> 11) == mantissas, by running
    splitmix64 backwards (xorshifts and odd multipliers are invertible)."""
    mask = (1 << 64) - 1
    h = (np.asarray(mantissas, dtype=np.uint64) << np.uint64(11)) | np.uint64(low_bits & 0x7FF)
    with np.errstate(over="ignore"):
        z = _unxorshift(h, 31) * np.uint64(pow(0x94D049BB133111EB, -1, 1 << 64))
        z = _unxorshift(z, 27) * np.uint64(pow(0xBF58476D1CE4E5B9, -1, 1 << 64))
        z = _unxorshift(z, 30)
        c = (z - np.uint64(key & mask)) * np.uint64(pow(0x9E3779B97F4A7C15, -1, 1 << 64))
        return c - np.uint64(1)
