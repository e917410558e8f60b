"""Generators and finite truncations of infinite locally finite rooted trees.

A `Tree` is a depth-`n` window onto an infinite tree described by a
`TreeSpec`.  Vertices are numbered 0..V-1 in breadth-first order (root 0),
which makes each level a contiguous id range, keeps children of one parent
contiguous, and makes truncations at different depths prefix-consistent.
Frontier vertices carry an `extendable` flag: True when the generator would
give them successors beyond the window.  Dead-end leaves (vertices the
generator stops at for good) stay non-extendable, so cut and flow semantics
can tell an infinity proxy from a genuine leaf.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError, parse
from .ratecalc import Distribution
from . import rng

DEFAULT_VERTEX_CAP = 1 << 26
_CAP_ENV_VAR = "TREELAB_VERTEX_CAP"

_TAG_OFFSPRING = 0x0FF5
_TAG_ATTEMPT = 0xA77E
_SWEEP_CHUNK = 1 << 16  # vertices per gather in `Tree.sweep_down`

_SPINE_RULES = {
    "pow2_minus_one": lambda d: 2 ** (d + 1) - 1,
}


def _int_tuple(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def effective_vertex_cap(override: int | None = None) -> int:
    """Effective vertex budget: explicit override, else env var, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(_CAP_ENV_VAR)
    return int(env) if env else DEFAULT_VERTEX_CAP


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeSpec:
    """Description of an infinite rooted tree; materialized via build_truncation.

    Kinds: "homogeneous" (b children everywhere), "galton_watson" (i.i.d.
    offspring counts, optionally conditioned on the truncation surviving),
    "spine_with_leaves" (one infinite ray plus finite leaf bundles), and
    "explicit" (a literal parent table).
    """

    kind: str
    b: int | None = None
    offspring: Distribution | None = None
    seed: int | None = None
    condition_nonextinct: bool = False
    leaf_rule: str | int | tuple[int, ...] | Callable[[int], int] = "pow2_minus_one"
    parents: tuple[int, ...] | None = None
    extendable_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind == "homogeneous":
            if self.b is None or int(self.b) < 1:
                raise ValidationError("homogeneous spec needs integer b >= 1")
        elif self.kind == "galton_watson":
            if self.offspring is None or self.seed is None:
                raise ValidationError("galton_watson spec needs offspring law and seed")
            for s in self.offspring.support:
                if not (math.isfinite(s) and s >= 0 and float(s).is_integer()):
                    raise ValidationError("offspring support must be nonnegative integers")
        elif self.kind == "spine_with_leaves":
            self.leaf_count_at(0)  # validates the rule
        elif self.kind == "explicit":
            if self.parents is None:
                raise ValidationError("explicit spec needs a parent table")
        else:
            raise ValidationError(f"unknown tree kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def homogeneous(cls, b: int) -> "TreeSpec":
        return cls(kind="homogeneous", b=parse(int, b, "branching factor b"))

    @classmethod
    def galton_watson(cls, offspring: Distribution, seed: int,
                      condition_nonextinct: bool = False) -> "TreeSpec":
        return cls(kind="galton_watson", offspring=offspring,
                   seed=parse(int, seed, "seed"),
                   condition_nonextinct=condition_nonextinct)

    @classmethod
    def spine_with_leaves(cls, leaf_rule="pow2_minus_one") -> "TreeSpec":
        if isinstance(leaf_rule, (list, tuple)):
            leaf_rule = parse(_int_tuple, leaf_rule, "leaf rule")
        return cls(kind="spine_with_leaves", leaf_rule=leaf_rule)

    @classmethod
    def explicit(cls, parents: Sequence[int],
                 extendable: Sequence[int] | None = None) -> "TreeSpec":
        return cls(kind="explicit", parents=parse(_int_tuple, parents, "parent table"),
                   extendable_ids=None if extendable is None
                   else parse(_int_tuple, extendable, "extendable ids"))

    # -- helpers ------------------------------------------------------------

    def leaf_count_at(self, depth: int) -> int:
        """Leaves attached to the spine vertex at the given depth."""
        r = self.leaf_rule
        if callable(r):
            n = r(depth)
        elif isinstance(r, str):
            if r not in _SPINE_RULES:
                raise ValidationError(f"unknown leaf rule {r!r}")
            n = _SPINE_RULES[r](depth)
        elif isinstance(r, int):
            n = r
        elif isinstance(r, tuple):
            n = r[depth] if depth < len(r) else r[-1]
        else:
            raise ValidationError(f"bad leaf rule {r!r}")
        if n < 0:
            raise ValidationError("leaf counts must be >= 0")
        return int(n)

    def known_branching(self) -> float | None:
        """Branching number when the generator pins it exactly, else None.

        Homogeneous trees branch at b; supercritical family trees branch at
        the offspring mean on survival; the spine family branches at 1 since
        cutting its single ray costs one vertex at any depth.
        """
        if self.kind == "homogeneous":
            return float(self.b)
        if self.kind == "galton_watson":
            m = self.offspring.mean
            return float(m) if m > 1.0 else None
        if self.kind == "spine_with_leaves":
            return 1.0
        return None

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        doc: dict = {"schema": 1, "kind": self.kind}
        if self.kind == "homogeneous":
            doc["b"] = self.b
        elif self.kind == "galton_watson":
            doc["offspring"] = self.offspring.to_json()
            doc["seed"] = self.seed
            doc["condition_nonextinct"] = self.condition_nonextinct
        elif self.kind == "spine_with_leaves":
            if callable(self.leaf_rule):
                raise ValidationError("callable leaf rules are not serializable")
            doc["leaf_rule"] = (list(self.leaf_rule)
                                if isinstance(self.leaf_rule, tuple) else self.leaf_rule)
        elif self.kind == "explicit":
            doc["parents"] = list(self.parents)
            if self.extendable_ids is not None:
                doc["extendable"] = list(self.extendable_ids)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "TreeSpec":
        try:
            kind = doc["kind"]
        except (KeyError, TypeError):
            raise ValidationError("tree document has no 'kind' field")

        def required(name: str):
            if name not in doc:
                raise ValidationError(f"{kind} tree document has no {name!r} field")
            return doc[name]

        if kind == "homogeneous":
            return cls.homogeneous(required("b"))
        if kind == "galton_watson":
            condition = doc.get("condition_nonextinct", False)
            if not isinstance(condition, bool):
                raise ValidationError("condition_nonextinct must be true or false")
            return cls.galton_watson(Distribution.from_json(required("offspring")),
                                     required("seed"), condition)
        if kind == "spine_with_leaves":
            rule = doc.get("leaf_rule", "pow2_minus_one")
            if isinstance(rule, (int, float)) and not isinstance(rule, bool):
                rule = parse(int, rule, "leaf rule")
            return cls.spine_with_leaves(rule)
        if kind == "explicit":
            return cls.explicit(required("parents"), doc.get("extendable"))
        raise ValidationError(f"unknown tree kind {kind!r}")

    @classmethod
    def load(cls, path) -> "TreeSpec":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def load_parent_list(path) -> TreeSpec:
    """Explicit spec from a whitespace-separated parent list.

    Token i (0-based) is the parent id of vertex i+1; vertex 0 is the root.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        parents = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValidationError(f"parent list file: {exc}")
    return TreeSpec.explicit(parents)


# ---------------------------------------------------------------------------
# Materialized trees
# ---------------------------------------------------------------------------

@dataclass
class Tree:
    """A finite truncation in BFS layout; treat as immutable once built."""

    parent: np.ndarray          # int64; parent[0] == -1
    depth: np.ndarray           # int64, nondecreasing
    extendable: np.ndarray      # bool; may be True only at the truncation depth
    truncation_depth: int
    source_vertices: np.ndarray | None = None  # original ids after contraction

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @cached_property
    def level_offsets(self) -> np.ndarray:
        """Offsets such that level k occupies [offsets[k], offsets[k+1])."""
        return np.searchsorted(self.depth, np.arange(self.truncation_depth + 2))

    def level_slice(self, k: int) -> slice:
        off = self.level_offsets
        return slice(int(off[k]), int(off[k + 1]))

    def level_sizes(self) -> np.ndarray:
        return np.diff(self.level_offsets)

    @property
    def has_extendable_frontier(self) -> bool:
        return bool(self.extendable.any())

    def children_slice(self, v: int) -> slice:
        """Ids of v's children (contiguous by the BFS layout)."""
        d = int(self.depth[v])
        sl = self.level_slice(d + 1) if d + 1 <= self.truncation_depth else slice(0, 0)
        seg = self.parent[sl]
        lo = int(np.searchsorted(seg, v, side="left")) + sl.start
        hi = int(np.searchsorted(seg, v, side="right")) + sl.start
        return slice(lo, hi)

    def sweep_down(self, edge_vals: np.ndarray) -> np.ndarray:
        """Root-path sums: out[v] = edge_vals[v] + out[parent(v)], with
        out[v] = edge_vals[v] on levels 0 and 1 (the root has no edge).

        Levels go top-down; parents are gathered a chunk at a time into one
        reused buffer, so no level-size temporary is built.
        """
        out = np.array(edge_vals, dtype=np.float64)
        buf = np.empty(min(_SWEEP_CHUNK, self.n_vertices))
        for k in range(2, self.truncation_depth + 1):
            sl = self.level_slice(k)
            for lo in range(sl.start, sl.stop, _SWEEP_CHUNK):
                hi = min(lo + _SWEEP_CHUNK, sl.stop)
                b = buf[:hi - lo]
                np.take(out, self.parent[lo:hi], out=b)
                out[lo:hi] += b
        return out

    @cached_property
    def _lineage(self) -> np.ndarray:
        """The `extendable_lineage` mask, by one leaf-to-root sweep."""
        alive = self.extendable.copy()
        for k in range(self.truncation_depth, 0, -1):
            sl = self.level_slice(k)
            if sl.start == sl.stop:
                continue
            off = self.level_offsets[k - 1]
            counts = np.bincount(self.parent[sl] - off,
                                 weights=alive[sl].astype(np.float64),
                                 minlength=int(self.level_offsets[k] - off))
            prev = self.level_slice(k - 1)
            alive[prev] |= counts > 0
        alive.setflags(write=False)
        return alive

    def _freeze(self) -> "Tree":
        for arr in (self.parent, self.depth, self.extendable):
            arr.setflags(write=False)
        if self.source_vertices is not None:
            self.source_vertices.setflags(write=False)
        return self


def level_sizes(tree: Tree) -> np.ndarray:
    """Vertex counts per depth, M_0..M_n."""
    return tree.level_sizes()


def extendable_lineage(tree: Tree) -> np.ndarray:
    """Mask of vertices having an extendable frontier vertex in their subtree
    (the vertex itself included).

    Computed once per tree and shared by every caller, so it is read-only.
    """
    return tree._lineage


def validate_tree(tree: Tree) -> None:
    """Check the structural invariants; raises ValidationError on any breach."""
    v = tree.n_vertices
    if v == 0 or tree.parent[0] != -1 or tree.depth[0] != 0:
        raise ValidationError("root must be vertex 0 at depth 0")
    if np.any(np.diff(tree.depth) < 0):
        raise ValidationError("vertex ids must be sorted by depth")
    if v > 1:
        p = tree.parent[1:]
        if np.any((p < 0) | (p >= np.arange(1, v))):
            raise ValidationError("each non-root parent id must precede the vertex")
        if np.any(tree.depth[1:] != tree.depth[p] + 1):
            raise ValidationError("depth must be parent depth + 1")
        for k in range(1, tree.truncation_depth + 1):
            seg = tree.parent[tree.level_slice(k)]
            if np.any(np.diff(seg) < 0):
                raise ValidationError("children of a level must be grouped by parent")
    if int(tree.depth[-1]) > tree.truncation_depth:
        raise ValidationError("vertices deeper than the truncation depth")
    if tree.extendable[tree.depth < tree.truncation_depth].any():
        raise ValidationError("only frontier vertices may be extendable")


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise ResourceCapError(
            f"truncation needs {n} vertices, over the budget of {cap} "
            f"(raise via {_CAP_ENV_VAR} or vertex_cap=)"
        )


def _assemble(parents_per_level: list[np.ndarray], depth_n: int,
              extendable: np.ndarray) -> Tree:
    sizes = [1] + [len(p) for p in parents_per_level]
    parent = np.concatenate([np.array([-1], dtype=np.int64)] +
                            [p.astype(np.int64) for p in parents_per_level])
    depth = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return Tree(parent=parent, depth=depth, extendable=extendable,
                truncation_depth=depth_n)._freeze()


def _build_homogeneous(b: int, depth: int, cap: int) -> Tree:
    total = depth + 1 if b == 1 else (b ** (depth + 1) - 1) // (b - 1)
    _check_cap(total, cap)
    levels = []
    start, size = 0, 1
    for _ in range(depth):
        levels.append(np.repeat(np.arange(start, start + size, dtype=np.int64), b))
        start += size
        size *= b
    ext = np.zeros(total, dtype=bool)
    ext[start:] = True
    return _assemble(levels, depth, ext)


def _build_spine(spec: TreeSpec, depth: int, cap: int) -> Tree:
    if depth == 0:
        return Tree(parent=np.array([-1], dtype=np.int64),
                    depth=np.zeros(1, dtype=np.int64),
                    extendable=np.ones(1, dtype=bool),
                    truncation_depth=0)._freeze()
    sizes = [1]
    for k in range(depth):
        sizes.append(1 + spec.leaf_count_at(k))
    total = sum(sizes)
    _check_cap(total, cap)
    levels = []
    start = 0
    for k in range(depth):
        # every level-(k+1) vertex hangs off the spine vertex, which is laid
        # out first in its level
        levels.append(np.full(sizes[k + 1], start, dtype=np.int64))
        start += sizes[k]
    ext = np.zeros(total, dtype=bool)
    ext[start] = True  # the spine vertex at the truncation depth
    return _assemble(levels, depth, ext)


def _gw_offspring_counts(spec: TreeSpec, key: int, ids: np.ndarray) -> np.ndarray:
    return spec.offspring.sample_values(key, ids).astype(np.int64)


def _build_galton_watson(spec: TreeSpec, depth: int, cap: int,
                         key: int) -> Tree:
    levels = []
    total, start, size = 1, 0, 1
    for _ in range(depth):
        if size == 0:
            break  # process died before the window edge
        ids = np.arange(start, start + size, dtype=np.uint64)
        counts = _gw_offspring_counts(spec, key, ids)
        total += int(counts.sum())
        _check_cap(total, cap)
        levels.append(np.repeat(np.arange(start, start + size, dtype=np.int64), counts))
        start += size
        size = int(counts.sum())
    ext = np.zeros(total, dtype=bool)
    if len(levels) == depth and size > 0:
        # frontier vertices extend iff their (unmaterialized) offspring count is
        # positive, keyed by vertex id like every other draw
        frontier_ids = np.arange(start, start + size, dtype=np.uint64)
        ext[start:] = _gw_offspring_counts(spec, key, frontier_ids) > 0
    if not levels:
        return Tree(parent=np.array([-1], dtype=np.int64),
                    depth=np.zeros(1, dtype=np.int64),
                    extendable=ext[:1].copy(),
                    truncation_depth=depth)._freeze()
    return _assemble(levels, depth, ext)


def _canonicalize_explicit(spec: TreeSpec, depth: int, cap: int) -> Tree:
    parents = spec.parents
    n = len(parents) + 1
    _check_cap(n, cap)
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
        # only legitimate when the table declares itself finite: nothing may
        # claim to extend past where it actually stops
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
        # BFS ids: children of one parent stay contiguous within their level
        for v in sorted(by_level.get(d, ()),
                        key=lambda v: (new_id[parents[v - 1]], v)):
            new_id[v] = len(keep)
            keep.append(v)
    parent = np.array([-1] + [new_id[parents[v - 1]] for v in keep[1:]],
                      dtype=np.int64)
    dep = np.array([depth_of[v] for v in keep], dtype=np.int64)
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
    # ensure BFS child grouping (keep was sorted by (depth, id), and parents of
    # a level are visited in id order, so groups are already contiguous)
    tree = Tree(parent=parent, depth=dep, extendable=ext, truncation_depth=depth)
    validate_tree(tree)
    return tree._freeze()


def build_truncation(spec: TreeSpec, depth: int, *,
                     vertex_cap: int | None = None) -> Tree:
    """Materialize the depth-`depth` truncation of the spec's infinite tree.

    Deterministic for a fixed (spec, depth); family trees are keyed by
    (spec.seed, vertex id), so truncations at different depths agree on their
    shared prefix and are independent of traversal order.
    """
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    cap = effective_vertex_cap(vertex_cap)
    if spec.kind == "homogeneous":
        return _build_homogeneous(spec.b, depth, cap)
    if spec.kind == "spine_with_leaves":
        return _build_spine(spec, depth, cap)
    if spec.kind == "galton_watson":
        if not spec.condition_nonextinct:
            return _build_galton_watson(spec, depth, cap,
                                        rng.derive(spec.seed, _TAG_OFFSPRING))
        for attempt in range(10000):
            key = rng.derive(spec.seed, _TAG_OFFSPRING, _TAG_ATTEMPT, attempt)
            tree = _build_galton_watson(spec, depth, cap, key)
            if tree.has_extendable_frontier:
                return tree
        raise ValidationError(
            "could not draw a surviving truncation in 10000 attempts; "
            "offspring law is likely subcritical")
    if spec.kind == "explicit":
        return _canonicalize_explicit(spec, depth, cap)
    raise ValidationError(f"unknown tree kind {spec.kind!r}")


def truncate(tree: Tree, depth: int) -> Tree:
    """Restrict a truncation to a shallower depth (a BFS prefix of the arrays).

    Frontier vertices of the result are extendable iff they have children in
    the source tree (or were already extendable there).
    """
    if depth < 0 or depth > tree.truncation_depth:
        raise ValidationError("depth must be in 0..truncation_depth")
    if depth == tree.truncation_depth:
        return tree
    cut = int(tree.level_offsets[depth + 1])
    ext = np.zeros(cut, dtype=bool)
    sl = tree.level_slice(depth)
    child_sl = tree.level_slice(depth + 1)
    has_child = np.zeros(cut, dtype=bool)
    if child_sl.start < child_sl.stop:
        counts = np.bincount(tree.parent[child_sl] - sl.start,
                             minlength=sl.stop - sl.start)
        has_child[sl] = counts > 0
    ext[sl] = has_child[sl] | tree.extendable[sl]
    return Tree(parent=tree.parent[:cut], depth=tree.depth[:cut],
                extendable=ext, truncation_depth=depth)._freeze()


# ---------------------------------------------------------------------------
# Level contraction
# ---------------------------------------------------------------------------

def contract_k(tree: Tree, k: int) -> Tree:
    """The tree on depths divisible by k, with k-step segments as edges.

    The result's `source_vertices` maps each contracted vertex back to its
    original id; the original path of an edge is recoverable by walking the
    original parent array k steps.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if tree.truncation_depth % k != 0:
        raise ValidationError(
            f"truncation depth {tree.truncation_depth} is not divisible by {k}")
    if k == 1:
        return Tree(parent=tree.parent, depth=tree.depth,
                    extendable=tree.extendable,
                    truncation_depth=tree.truncation_depth,
                    source_vertices=np.arange(tree.n_vertices, dtype=np.int64))
    keep = (np.asarray(tree.depth) % k) == 0
    src = np.nonzero(keep)[0].astype(np.int64)
    anc = src.copy()
    for _ in range(k):
        anc = np.where(anc > 0, tree.parent[np.maximum(anc, 0)], -1)
    new_id = np.cumsum(keep) - 1
    parent = np.where(anc >= 0, new_id[np.maximum(anc, 0)], -1).astype(np.int64)
    out = Tree(parent=parent,
               depth=(tree.depth[src] // k).astype(np.int64),
               extendable=tree.extendable[src].copy(),
               truncation_depth=tree.truncation_depth // k,
               source_vertices=src)
    return out._freeze()
