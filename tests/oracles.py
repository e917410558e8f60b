"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's optimizers: rates come from
dense grids (step 1e-4 on the optimization variable), tails from binomial
arithmetic, cut minima from exhaustive cutset enumeration or a recursion in
exact rationals, conductance from series-parallel reduction and kernel rows
from conductance ratios, both in exact rationals, walks from one hash per
step, and branching intervals from a bisection on the cutset-decay test.
Oracle values are computed first and frozen into the tests that exercise the
real code.
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
    depth = depths_by_climbing(tree)
    log_val[frontier] = -depth[frontier] * log_lam

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
        own = -depth[sl] * log_lam
        log_val[sl] = np.where(alive[sl], np.minimum(own, child_total), -np.inf)

    lvl1 = tree.level_slice(1)
    vals = log_val[lvl1][alive[lvl1]]
    mx = float(vals.max())
    return mx + math.log(float(np.exp(vals - mx).sum()))


def estimate_branching_by_bisection(deep, tol: float):
    """The branching interval with the switch-over bracketed by bisection:
    the estimator before the predicted switch-over, kept as the judge.

    From max(2, growth + 1), lambda doubles until the cutset minimum at depth
    n falls below half its value at n // 2, then bisection from [1, hi]
    closes to min(tol, 0.01).  The interval is the same rule: the per-level
    decay rate at hi + tol and 1.5 * hi + 0.5 times the probe, widened by
    tol / 2 and floored at 1.  The cutset minima come from
    `branching.log_cutset_min`, looked up on the module at each call.
    """
    from treelab import branching
    from treelab.branching import BranchingEstimate, growth_rate
    from treelab.trees import truncate

    decay_factor, floor, max_lambda = 0.5, 1.0, 2.0**40

    def decay_rate(deep, half, lam):
        steps = deep.truncation_depth - half.truncation_depth
        return math.exp((branching.log_cutset_min(deep, lam)
                         - branching.log_cutset_min(half, lam)) / steps)

    branching._check_estimate_args(deep.truncation_depth, tol)
    if not deep.has_extendable_frontier:
        return BranchingEstimate(0.0, 0.0, inconclusive=False,
                                 note="finite tree (no extendable frontier)")
    half = truncate(deep, deep.truncation_depth // 2)

    def decayed(lam: float) -> bool:
        steps = deep.truncation_depth - half.truncation_depth
        return decay_rate(deep, half, lam) ** steps < decay_factor

    lo = floor
    hi = max(2.0, growth_rate(deep) + 1.0)
    while not decayed(hi):
        hi *= 2.0
        if hi > max_lambda:
            return BranchingEstimate(lo, hi, inconclusive=True,
                                     note="no decay found up to the lambda cap")
    while hi - lo > min(tol, 0.01):
        mid = 0.5 * (lo + hi)
        if decayed(mid):
            hi = mid
        else:
            lo = mid

    estimates = [probe * decay_rate(deep, half, probe)
                 for probe in (hi + tol, 1.5 * hi + 0.5)]
    lo_est = max(floor, min(estimates) - 0.5 * tol)
    hi_est = max(floor, max(estimates) + 0.5 * tol)
    wide = (hi_est - lo_est) > 0.5
    return BranchingEstimate(lo_est, hi_est, inconclusive=wide,
                             note="interval wider than 0.5" if wide else "")


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
    extendable = tree.extendable
    below = [Fraction(0)] * len(parent)  # sum of the children's val
    for v in range(len(parent) - 1, 0, -1):
        val = caps[v] if extendable[v] else min(caps[v], below[v])
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


def derive_numpy(key: int, *tags: int) -> int:
    """Subkey derivation k -> fin((k ^ fin(tag)) + golden) per tag, with fin
    the splitmix64 finalizer, in wrapping numpy uint64 arithmetic."""
    def fin(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    mask = 0xFFFFFFFFFFFFFFFF
    k = np.uint64(key & mask)
    with np.errstate(over="ignore"):
        for t in tags:
            k = fin((k ^ fin(np.uint64(t & mask))) + np.uint64(0x9E3779B97F4A7C15))
    return int(k)


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


# ---------------------------------------------------------------------------
# Level primitives, vertex by vertex
# ---------------------------------------------------------------------------

def depths_by_climbing(tree) -> np.ndarray:
    """The depth of every vertex: the number of `parent` steps up to -1."""
    depth = np.zeros(tree.n_vertices, dtype=np.int64)
    up = np.array(tree.parent, dtype=np.int64)
    while (up >= 0).any():
        on = up >= 0
        depth += on
        up[on] = tree.parent[up[on]]
    return depth


def canonicalize_explicit_by_dicts(spec, depth: int):
    """(parent, extendable, level_offsets) of the depth-`depth` truncation of
    an explicit spec, vertex by vertex: depths in a dict from a BFS, each
    level sorted by (parent's new id, old id), new ids in a dict and the
    marked ids in a set.  Raises the library's ValidationError for a table
    the library rejects, with the same message."""
    from treelab.errors import ValidationError

    parents = spec.parents
    n = len(parents) + 1
    kids: list[list[int]] = [[] for _ in range(n)]
    for child0, par in enumerate(parents):
        child = child0 + 1
        if not (0 <= par < n) or par == child:
            raise ValidationError(f"vertex {child} has bad parent {par}")
        kids[par].append(child)
    # BFS from the root; anything unreached means a cycle or disconnection
    order = [0]
    depth_of = {0: 0}
    for v in order:
        for c in kids[v]:
            depth_of[c] = depth_of[v] + 1
            order.append(c)
    if len(order) != n:
        raise ValidationError("explicit table is not a single rooted tree")
    table_depth = max(depth_of.values())
    marked = set(spec.extendable_ids) if spec.extendable_ids is not None else None
    if depth > table_depth:
        if marked is None or marked:
            raise ValidationError(
                f"explicit table reaches depth {table_depth}, not {depth} "
                "(mark dead ends by passing extendable=[])")

    by_level: dict[int, list[int]] = {}
    for v in order:
        if depth_of[v] <= depth:
            by_level.setdefault(depth_of[v], []).append(v)
    new_id = {0: 0}
    keep = [0]
    for d in range(1, depth + 1):
        for v in sorted(by_level.get(d, ()),
                        key=lambda v: (new_id[parents[v - 1]], v)):
            new_id[v] = len(keep)
            keep.append(v)
    parent = np.array([-1] + [new_id[parents[v - 1]] for v in keep[1:]],
                      dtype=np.int64)
    sizes = [0] + [len(by_level.get(d, ())) for d in range(depth + 1)]
    ext = np.zeros(len(keep), dtype=bool)
    for v in keep:
        if depth_of[v] != depth:
            if marked is not None and v in marked and not kids[v]:
                raise ValidationError(
                    f"vertex {v} is marked extendable but the table stops at "
                    f"depth {depth_of[v]} < {depth}")
            continue
        if marked is None:
            ext[new_id[v]] = depth_of[v] == table_depth or bool(kids[v])
        else:
            ext[new_id[v]] = v in marked or any(
                depth_of[c] > depth for c in kids[v])
    return parent, ext, np.cumsum(sizes, dtype=np.int64)


def level_parents_by_search(tree, k: int) -> tuple[list[int], int]:
    """Each level-k vertex's parent's position among the level-(k-1) ids, by
    listing the vertices of each depth; and the size of level k - 1."""
    depth = depths_by_climbing(tree).tolist()
    above = [v for v, d in enumerate(depth) if d == k - 1]
    return [above.index(int(tree.parent[v])) for v, d in enumerate(depth) if d == k], \
        len(above)


def reached_by_loop(parent, open_edges) -> list[bool]:
    """Vertices joined to the root by open edges (the root's own entry
    ignored), vertex by vertex in id order."""
    reached = [True] + [False] * (len(parent) - 1)
    for v in range(1, len(parent)):
        reached[v] = bool(open_edges[v]) and reached[int(parent[v])]
    return reached


def survival_by_recursion(tree, q: float) -> float:
    """f(v) = 1 - exp(sum over children c, in id order, of log1p(-q f(c))),
    with f = 1 on extendable vertices, one vertex at a time from the last id
    to the root (a dead end sums nothing: f = 0)."""
    n = len(tree.parent)
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        kids[int(tree.parent[v])].append(v)
    f = [0.0] * n
    extendable = tree.extendable
    with np.errstate(divide="ignore"):
        for v in range(n - 1, -1, -1):
            if extendable[v]:
                f[v] = 1.0
                continue
            total = 0.0
            for c in kids[v]:
                total += float(np.log1p(-q * f[c]))
            f[v] = float(1.0 - np.exp(total))
    return f[0]


def climb_by_steps(parent, v: int, steps: int) -> int:
    """The ancestor `steps` levels above v; -1 once the root is passed."""
    for _ in range(steps):
        v = int(parent[v]) if v > 0 else -1
    return v


def segment_fold_by_steps(parent, per_vertex, v: int, k: int, combine):
    """combine folded over per_vertex at v and its k - 1 nearest ancestors
    (index 0 past the root)."""
    out = per_vertex[v]
    for i in range(1, k):
        out = combine(out, per_vertex[max(climb_by_steps(parent, v, i), 0)])
    return out


def step_by_scan(row, u: float) -> int:
    """The walk step by a linear scan of the cumulative row: the first id
    whose cumulative probability exceeds u, else the last id."""
    ids, cum = row
    for i, edge in enumerate(cum):
        if u < edge:
            return ids[i]
    return ids[-1]


def keyed_walk(row, key: int, trial: int, block: int = 64):
    """The vertices visited by walk `trial` from the root, one per step: step
    s hashes its own uniform alone, at counter trial * block + s % block
    under the subkey derive(key, s // block), and moves by `step_by_scan` on
    row(v), a (ids, cumulative probabilities) pair."""
    v, s = 0, 0
    while True:
        u = splitmix_uniforms(derive_numpy(key, s // block),
                              [trial * block + s % block])[0]
        v = step_by_scan(row(v), float(u))
        yield v
        s += 1


def escape_outcomes_by_single_draws(row, key: int, first: int, trials: int):
    """Per walk t < trials, whether it reaches an id >= first before it
    returns to the root, and the most steps any walk took."""
    outcomes, longest = [], 0
    for t in range(trials):
        for steps, v in enumerate(keyed_walk(row, key, t), 1):
            if v >= first or v == 0:
                outcomes.append(v >= first)
                longest = max(longest, steps)
                break
    return outcomes, longest


def walk_transitions_by_single_draws(row, key: int, steps: int) -> dict:
    """Transition counts {v: {w: count}} of walk 0 over `steps` steps on a
    tree whose walk never stops early (no extendable frontier)."""
    counts: dict = {}
    v = 0
    for _, w in zip(range(steps), keyed_walk(row, key, 0)):
        counts.setdefault(v, {})
        counts[v][w] = counts[v].get(w, 0) + 1
        v = w
    return counts


def _unxorshift(y: np.ndarray, s: int) -> np.ndarray:
    """Inverse of x -> x ^ (x >> s) on uint64."""
    x = y.copy()
    for _ in range(64 // s + 1):
        x = y ^ (x >> np.uint64(s))
    return x


def prefinal_for_mantissas(mantissas, low_bits: int = 0) -> np.ndarray:
    """The splitmix64 states z, before the final z ^ (z >> 31), of the hashes
    h with h >> 11 == mantissas and low 11 bits `low_bits`."""
    h = (np.asarray(mantissas, dtype=np.uint64) << np.uint64(11)) | np.uint64(low_bits & 0x7FF)
    return _unxorshift(h, 31)


def counters_for_mantissas(key: int, mantissas, low_bits: int = 0) -> np.ndarray:
    """Counters c with (splitmix_hash(key, c) >> 11) == mantissas, by running
    splitmix64 backwards (xorshifts and odd multipliers are invertible)."""
    mask = (1 << 64) - 1
    with np.errstate(over="ignore"):
        z = prefinal_for_mantissas(mantissas, low_bits) * np.uint64(
            pow(0x94D049BB133111EB, -1, 1 << 64))
        z = _unxorshift(z, 27) * np.uint64(pow(0xBF58476D1CE4E5B9, -1, 1 << 64))
        z = _unxorshift(z, 30)
        c = (z - np.uint64(key & mask)) * np.uint64(pow(0x9E3779B97F4A7C15, -1, 1 << 64))
        return c - np.uint64(1)
