"""Generators and finite truncations of infinite locally finite rooted trees.

A `Tree` is a depth-`n` window onto an infinite tree described by a
`TreeSpec`.  Vertices are numbered 0..V-1 in breadth-first order (root 0),
which makes each level a contiguous id range, keeps children of one parent
contiguous, and makes truncations at different depths prefix-consistent.
A tree stores one array per vertex, `parent`, one offset per level (level
k is the id range [level_offsets[k], level_offsets[k+1]), so a vertex's
depth is found from its id) and one flag per deepest-level vertex,
`frontier`; a `HomogeneousLevels` (the b-ary truncation) builds `parent`
only when it is read.  An explicit parent table is renumbered in the order
of one BFS pass that visits children in id order: by depth, then by the
parent's new id, then by the old id.
Only deepest-level vertices can be extendable: True when the generator
would give them successors beyond the window.  Dead-end leaves (vertices
the generator stops at for good) stay non-extendable, so cut and flow
semantics can tell an infinity proxy from a genuine leaf.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ResourceCapError, ValidationError, parse
from .ratecalc import Distribution
from . import rng

DEFAULT_VERTEX_CAP = 1 << 26
_CAP_ENV_VAR = "TREELAB_VERTEX_CAP"

_TAG_OFFSPRING = 0x0FF5
_TAG_ATTEMPT = 0xA77E
_SWEEP_CHUNK = 1 << 16  # vertices per parent gather of a `Tree` sweep
_MAX_VERTICES = 1 << 60  # 2**63 bytes of float64: no array of it fits

_SPINE_RULES = {
    "pow2_minus_one": lambda d: 2 ** (d + 1) - 1,
}


def _int_tuple(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def effective_vertex_cap() -> int:
    """The vertex budget: the env var when set, else the default."""
    env = os.environ.get(_CAP_ENV_VAR)
    cap = parse(int, env, _CAP_ENV_VAR) if env else DEFAULT_VERTEX_CAP
    if cap < 1:
        raise ValidationError(f"{_CAP_ENV_VAR} must be >= 1, got {cap}")
    return cap


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
    leaf_rule: str | int | tuple[int, ...] = "pow2_minus_one"
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
        if isinstance(r, str):
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
        return cls.from_json(json.loads(
            parse(bytes.decode, Path(path).read_bytes(), f"UTF-8 in {path}")))


def load_parent_list(path) -> TreeSpec:
    """Explicit spec from a whitespace-separated parent list.

    Token i (0-based) is the parent id of vertex i+1; vertex 0 is the root.
    """
    text = parse(bytes.decode, Path(path).read_bytes(), f"UTF-8 in {path}")
    return TreeSpec(kind="explicit",
                    parents=parse(_int_tuple, text.split(), f"parent id in {path}"))


# ---------------------------------------------------------------------------
# Materialized trees
# ---------------------------------------------------------------------------

@dataclass
class Tree:
    """A finite truncation in BFS layout; treat as immutable once built.

    `frontier` holds the extendable flags of the deepest level, in id order,
    or is None when every vertex there is extendable."""

    parent: np.ndarray          # int64; parent[0] == -1, then nondecreasing
    frontier: np.ndarray | None  # bool, one per deepest-level vertex
    level_offsets: np.ndarray   # int64, truncation_depth + 2 entries
    source_vertices: np.ndarray | None = None  # original ids after contraction

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @property
    def truncation_depth(self) -> int:
        return len(self.level_offsets) - 2

    @property
    def has_extendable_frontier(self) -> bool:
        return self.frontier is None or bool(self.frontier.any())

    @property
    def extendable(self) -> np.ndarray:
        """Per vertex, whether it is extendable: `frontier` on the deepest
        level, False above it.  A new array on each read."""
        ext = np.zeros(self.n_vertices, dtype=bool)
        ext[self.level_slice(self.truncation_depth)] = (
            True if self.frontier is None else self.frontier)
        return ext

    def level_slice(self, k: int) -> slice:
        off = self.level_offsets
        return slice(int(off[k]), int(off[k + 1]))

    def level_sizes(self) -> np.ndarray:
        return np.diff(self.level_offsets)

    def depth_of(self, ids):
        """The level of each vertex id in `ids` (an int or an array)."""
        return np.searchsorted(self.level_offsets, ids, "right") - 1

    def children_slice(self, v: int) -> slice:
        """Ids of v's children: contiguous, as parent ids are nondecreasing."""
        return slice(int(np.searchsorted(self.parent, v, side="left")),
                     int(np.searchsorted(self.parent, v, side="right")))

    def level_parents(self, k: int) -> tuple[np.ndarray, int]:
        """For each vertex of level k >= 1, its parent's offset within level
        k - 1; and the size of level k - 1."""
        off = self.level_offsets
        return self.parent[self.level_slice(k)] - off[k - 1], int(off[k] - off[k - 1])

    def child_sums(self, k: int, vals: np.ndarray) -> np.ndarray:
        """For each vertex of level k - 1, in id order, the float64 sum of
        `vals` (one value per level-k vertex) over its children, added in
        id order from 0.0.  An empty level k (a family tree that died out)
        gives float64 zeros, where `np.bincount` alone gives int64."""
        group, m = self.level_parents(k)
        return np.bincount(group, weights=vals, minlength=m).astype(np.float64, copy=False)

    def climb(self, ids: np.ndarray) -> np.ndarray:
        """The parents of `ids`: -1 for the root, and for -1 (past the root)."""
        return np.where(ids > 0, self.parent[ids], -1)

    def sweep_down(self, vals: np.ndarray, op=np.add,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Root-path folds in the dtype of `vals`: out[v] = op(vals[v],
        out[parent(v)]), with out[v] = vals[v] on levels 0 and 1 (the root
        has no edge).  With np.add these are root-path sums.  `out`, an
        array of the shape and dtype of `vals` (`vals` itself folds in
        place), receives the folds instead of a new array.

        Levels go top-down, each folded in place by `_fold_level`.
        """
        if out is None:
            out = np.array(vals)
        elif out.shape != vals.shape or out.dtype != vals.dtype:
            raise ValueError("out must have the shape and dtype of vals")
        elif out is not vals:
            np.copyto(out, vals)
        for k in range(2, self.truncation_depth + 1):
            self._fold_level(out, k, op)
        return out

    def _fold_level(self, out: np.ndarray, k: int, op) -> None:
        """out[v] = op(out[v], out[parent(v)]) over level k >= 2.  Parents
        are gathered a chunk at a time into one buffer, so no level-size
        temporary is built."""
        sl = self.level_slice(k)
        buf = np.empty(min(_SWEEP_CHUNK, sl.stop - sl.start), dtype=out.dtype)
        for lo in range(sl.start, sl.stop, _SWEEP_CHUNK):
            hi = min(lo + _SWEEP_CHUNK, sl.stop)
            b = buf[:hi - lo]
            np.take(out, self.parent[lo:hi], out=b)
            op(out[lo:hi], b, out=out[lo:hi])

    @cached_property
    def _lineage(self) -> np.ndarray:
        """The `extendable_lineage` mask, by one leaf-to-root sweep."""
        alive = self.extendable
        for k in range(self.truncation_depth, 0, -1):
            counts = self.child_sums(k, alive[self.level_slice(k)])
            alive[self.level_slice(k - 1)] |= counts > 0
        alive.setflags(write=False)
        return alive

    def _freeze(self) -> "Tree":
        for arr in (self.parent, self.frontier, self.level_offsets, self.source_vertices):
            if arr is not None:
                arr.setflags(write=False)
        return self


def _heap_size(b: int, n: int) -> int:
    """The vertex count of the depth-n b-ary truncation."""
    return n + 1 if b == 1 else (b ** (n + 1) - 1) // (b - 1)


class HomogeneousLevels(Tree):
    """The depth-`truncation_depth` b-ary truncation, its levels by
    arithmetic on the heap layout: v's children are b*v + 1 .. b*v + b and
    its parent is (v - 1) // b.  `n_vertices` and `level_offsets` come from
    the closed form, and `frontier` is None: every deepest-level vertex is
    extendable.  `children_slice`, `climb`, `level_parents`, `child_sums`,
    the `sweep_down` folds and the lineage mask (all True) need no vertex
    array.  Only a direct read of `parent` builds one, frozen (a read of
    `extendable` builds a new one each time).  A count of 2**60 or more
    vertices is a `ResourceCapError` at once."""

    frontier = None

    def __init__(self, b: int, truncation_depth: int):
        self.b, self._depth = b, truncation_depth
        _check_cap(self.n_vertices)

    @property
    def truncation_depth(self) -> int:
        return self._depth

    @property
    def n_vertices(self) -> int:
        return _heap_size(self.b, self._depth)

    @cached_property
    def level_offsets(self) -> np.ndarray:
        off = np.cumsum([0] + [self.b**k for k in range(self._depth + 1)], dtype=np.int64)
        off.setflags(write=False)
        return off

    @cached_property
    def parent(self) -> np.ndarray:
        parent = np.arange(-1, self.n_vertices - 1, dtype=np.int64)
        parent //= self.b
        parent.setflags(write=False)
        return parent

    def children_slice(self, v: int) -> slice:
        """As `Tree.children_slice`: empty (at n_vertices) on the frontier."""
        n, first = self.n_vertices, self.b * int(v) + 1
        return slice(min(first, n), min(first + self.b, n))

    def climb(self, ids: np.ndarray) -> np.ndarray:
        """As `Tree.climb`, by (ids - 1) // b."""
        return np.where(ids > 0, (ids - 1) // self.b, -1)

    def _fold_level(self, out: np.ndarray, k: int, op) -> None:
        """As `Tree._fold_level`, with no gather and no temporary: level k
        viewed as one row of b children per level-(k - 1) parent, each row
        folded with its parent broadcast."""
        kids = out[self.level_slice(k)].reshape(-1, self.b)
        op(kids, out[self.level_slice(k - 1), None], out=kids)

    @cached_property
    def _lineage(self) -> np.ndarray:
        """All True, as a read-only broadcast of one flag."""
        return np.broadcast_to(np.True_, (self.n_vertices,))

    def level_parents(self, k: int) -> tuple[np.ndarray, int]:
        """As `Tree.level_parents`: the b children of a parent are adjacent."""
        return np.arange(self.b**k) // self.b, self.b**(k - 1)

    def child_sums(self, k: int, vals: np.ndarray) -> np.ndarray:
        """As `Tree.child_sums`, by strided adds: parent p's children are
        level-k offsets b*p .. b*p + b - 1.  The sums run in id order from
        the first child, which has the bits of `np.bincount`'s 0.0 + v_0 +
        v_1 + ... wherever v_0 is not -0.0; like it, a sum past double
        range is inf with no warning."""
        b = self.b
        if b == 1:
            return vals.copy()
        with np.errstate(over="ignore"):
            out = vals[0::b] + vals[1::b]
            for j in range(2, b):
                out += vals[j::b]
        return out


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
    v, off = tree.n_vertices, tree.level_offsets
    if v == 0 or len(off) < 2 or off[0] != 0 or off[1] != 1 or tree.parent[0] != -1:
        raise ValidationError("root must be vertex 0, alone at depth 0")
    if np.any(np.diff(off) < 0) or off[-1] != v:
        raise ValidationError("level offsets must be nondecreasing and end at V")
    if np.any(tree.depth_of(tree.parent[1:]) != tree.depth_of(np.arange(1, v)) - 1):
        raise ValidationError("each parent must lie in the level above its child")
    # with each parent a level up, this is the grouping within every level
    if np.any(np.diff(tree.parent[1:]) < 0):
        raise ValidationError("children of a level must be grouped by parent")
    if tree.frontier is not None and len(tree.frontier) != v - off[-2]:
        raise ValidationError("frontier must hold one flag per deepest-level vertex")


def _check_cap(n: int, cap: int | None = None) -> None:
    """A `ResourceCapError` for n vertices over the budget `cap`, or with
    no cap, for n past what a vertex array holds."""
    if n > (cap or _MAX_VERTICES - 1):
        try:
            count = str(n)
        except ValueError:  # past Python's digit limit for int to str
            count = f"at least 2**{n.bit_length() - 1}"
        raise ResourceCapError(
            f"truncation needs {count} vertices, " + (
                f"over the budget of {cap} (raise via {_CAP_ENV_VAR})" if cap
                else "but vertex arrays hold fewer than 2**60"))


def _assemble(parents_per_level: list[np.ndarray], depth_n: int,
              frontier: np.ndarray) -> Tree:
    """The tree whose levels 1..depth_n have these int64 parent ids."""
    sizes = [0, 1] + [len(p) for p in parents_per_level]
    sizes += [0] * (depth_n + 2 - len(sizes))  # the levels after an extinction
    parent = np.concatenate([np.array([-1], dtype=np.int64)] + parents_per_level)
    return Tree(parent=parent, frontier=frontier,
                level_offsets=np.cumsum(sizes, dtype=np.int64))._freeze()


def _build_spine(spec: TreeSpec, depth: int, cap: int) -> Tree:
    sizes = [1]
    for k in range(depth):
        sizes.append(1 + spec.leaf_count_at(k))
    _check_cap(sum(sizes), cap)
    levels = []
    start = 0
    for k in range(depth):
        # every level-(k+1) vertex hangs off the spine vertex, which is laid
        # out first in its level
        levels.append(np.full(sizes[k + 1], start, dtype=np.int64))
        start += sizes[k]
    frontier = np.zeros(sizes[-1], dtype=bool)
    frontier[0] = True  # the spine vertex at the truncation depth
    return _assemble(levels, depth, frontier)


def _gw_offspring_counts(spec: TreeSpec, key: int, ids: range) -> np.ndarray:
    return spec.offspring.sample_values(key, ids).astype(np.int64)


def _build_galton_watson(spec: TreeSpec, depth: int, cap: int,
                         key: int) -> Tree:
    levels = []
    total, start, size = 1, 0, 1
    for _ in range(depth):
        if size == 0:
            break  # process died before the window edge
        counts = _gw_offspring_counts(spec, key, range(start, start + size))
        total += int(counts.sum())
        _check_cap(total, cap)
        levels.append(np.repeat(np.arange(start, start + size, dtype=np.int64), counts))
        start += size
        size = int(counts.sum())
    # frontier vertices extend iff their (unmaterialized) offspring count is
    # positive, keyed by vertex id like every other draw; a level that died
    # out has no vertex to flag
    frontier = (_gw_offspring_counts(spec, key, range(start, start + size)) > 0
                if size else np.zeros(0, dtype=bool))
    return _assemble(levels, depth, frontier)


def _canonicalize_explicit(spec: TreeSpec, depth: int, cap: int) -> Tree:
    n = len(spec.parents) + 1
    _check_cap(n, cap)
    kids: list[list[int]] = [[] for _ in range(n)]
    for child, par in enumerate(spec.parents, 1):
        if not (0 <= par < n) or par == child:
            raise ValidationError(f"vertex {child} has bad parent {par}")
        kids[par].append(child)
    # BFS from the root, children in id order: the visiting order is the new
    # numbering, and level k starts at order[bounds[k]]
    order, bounds = [0], [0, 1]
    while bounds[-2] < bounds[-1]:
        for v in order[bounds[-2]:bounds[-1]]:
            order.extend(kids[v])
        bounds.append(len(order))
    # anything unreached means a cycle or disconnection
    if len(order) != n:
        raise ValidationError("explicit table is not a single rooted tree")
    table_depth = len(bounds) - 3
    if depth > table_depth and (spec.extendable_ids is None or spec.extendable_ids):
        # only legitimate when the table declares itself finite: nothing may
        # claim to extend past where it actually stops
        raise ValidationError(
            f"explicit table reaches depth {table_depth}, not {depth} "
            "(mark dead ends by passing extendable=[])")

    offsets = np.array(bounds[:depth + 2] + [n] * (depth + 2 - len(bounds)), dtype=np.int64)
    front, cut = int(offsets[-2]), int(offsets[-1])
    order = np.array(order, dtype=np.int64)
    n_kids = np.fromiter(map(len, kids), np.int64, n)[order[:cut]]
    marked = np.zeros(n, dtype=bool)
    if spec.extendable_ids is None:
        marked[order[bounds[table_depth]:]] = True  # the deepest level continues
    else:
        marked[[v for v in spec.extendable_ids if 0 <= v < n]] = True
    marked = marked[order[:cut]]
    # children of a parent are contiguous and follow their parents' order
    parent = np.concatenate(([-1], np.repeat(np.arange(front), n_kids[:front])))
    tree = Tree(parent=parent, frontier=marked[front:] | (n_kids[front:] > 0),
                level_offsets=offsets)
    stops = np.flatnonzero(marked[:front] & (n_kids[:front] == 0))
    if len(stops):
        raise ValidationError(
            f"vertex {order[stops[0]]} is marked extendable but the table stops at "
            f"depth {tree.depth_of(stops[0])} < {depth}")
    validate_tree(tree)
    return tree._freeze()


def build_truncation(spec: TreeSpec, depth: int) -> Tree:
    """Materialize the depth-`depth` truncation of the spec's infinite tree.

    Deterministic for a fixed (spec, depth); family trees are keyed by
    (spec.seed, vertex id), so truncations at different depths agree on their
    shared prefix and are independent of traversal order.
    """
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    cap = effective_vertex_cap()
    if spec.kind == "homogeneous":
        _check_cap(_heap_size(spec.b, depth), cap)
        return HomogeneousLevels(spec.b, depth)
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
    the source tree.  A `HomogeneousLevels`
    gives the `HomogeneousLevels` of the shallower depth, with no vertex array.
    """
    if depth < 0 or depth > tree.truncation_depth:
        raise ValidationError("depth must be in 0..truncation_depth")
    if depth == tree.truncation_depth:
        return tree
    if isinstance(tree, HomogeneousLevels):
        return HomogeneousLevels(tree.b, depth)
    cut = int(tree.level_offsets[depth + 1])
    group, m = tree.level_parents(depth + 1)
    return Tree(parent=tree.parent[:cut], frontier=np.bincount(group, minlength=m) > 0,
                level_offsets=tree.level_offsets[:depth + 2])._freeze()


# ---------------------------------------------------------------------------
# Level contraction
# ---------------------------------------------------------------------------

def contract_k(tree: Tree, k: int) -> Tree:
    """The tree on depths divisible by k, with k-step segments as edges.

    The result's `source_vertices` maps each contracted vertex back to its
    original id; the original path of an edge is recoverable by climbing
    k steps in the original tree (`Tree.climb`).  The deepest level is the
    source's, so `frontier` is the source's, shared.  For k >= 2 the source
    is read only through `level_slice` and `climb`: a `HomogeneousLevels`
    builds no vertex array.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if tree.truncation_depth % k != 0:
        raise ValidationError(
            f"truncation depth {tree.truncation_depth} is not divisible by {k}")
    # views share the memory but freeze without touching the caller's flags
    frontier = None if tree.frontier is None else tree.frontier.view()
    if k == 1:
        return Tree(parent=tree.parent.view(), frontier=frontier,
                    level_offsets=tree.level_offsets.view(),
                    source_vertices=np.arange(tree.n_vertices, dtype=np.int64))._freeze()
    kept = [tree.level_slice(j) for j in range(0, tree.truncation_depth + 1, k)]
    src = np.concatenate([np.arange(sl.start, sl.stop, dtype=np.int64) for sl in kept])
    anc = src
    for _ in range(k):
        anc = tree.climb(anc)
    # a contracted id is the rank of the original id among the kept ones
    parent = np.where(anc >= 0, np.searchsorted(src, anc), -1)
    out = Tree(parent=parent, frontier=frontier,
               level_offsets=np.cumsum([0] + [sl.stop - sl.start for sl in kept],
                                       dtype=np.int64),
               source_vertices=src)
    return out._freeze()
