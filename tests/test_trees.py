"""Tree generators, truncations, contraction, and serialization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treelab.errors import ResourceCapError, ValidationError
from treelab.networks import sample_environment
from treelab.percolation import percolate_sample
from treelab.ratecalc import Distribution
from treelab.rwre import _tree_level_counts, simulate_walk
from treelab.trees import (HomogeneousLevels, Tree, TreeSpec, build_truncation,
                           contract_k, extendable_lineage, level_sizes, load_parent_list,
                           truncate, validate_tree)

from conftest import assert_bits_equal, assorted_trees, random_explicit_spec, table_depth
import oracles
from oracles import is_cutset, level_cutset

HOM2 = TreeSpec.homogeneous(2)
SPINE = TreeSpec.spine_with_leaves()


class TestBuild:
    def test_homogeneous_counts(self):
        t = build_truncation(HOM2, 3)
        assert t.n_vertices == 15
        assert list(level_sizes(t)) == [1, 2, 4, 8]
        assert t.extendable.sum() == 8
        validate_tree(t)

    def test_homogeneous_level_sizes_depth2(self):
        t = build_truncation(TreeSpec.homogeneous(3), 2)
        assert list(level_sizes(t)) == [1, 3, 9]

    def test_spine_doubling_levels(self):
        # the leaf bundles are sized to make every level exactly double
        for depth in (3, 6, 10):
            t = build_truncation(SPINE, depth)
            assert list(level_sizes(t)) == [2**k for k in range(depth + 1)]
            assert t.extendable.sum() == 1  # only the spine continues
            validate_tree(t)

    def test_constant_offspring_equals_homogeneous(self):
        gw = TreeSpec.galton_watson(Distribution.point(2.0), seed=11)
        a = build_truncation(gw, 4)
        b = build_truncation(HOM2, 4)
        assert np.array_equal(a.parent, b.parent)
        assert np.array_equal(a.extendable, b.extendable)

    def test_single_path_levels(self):
        t = build_truncation(TreeSpec.explicit([0, 1, 2, 3, 4]), 5)
        assert list(level_sizes(t)) == [1] * 6

    def test_determinism(self):
        gw = TreeSpec.galton_watson(Distribution.uniform([0.0, 1.0, 2.0]), seed=5)
        a = build_truncation(gw, 6)
        b = build_truncation(gw, 6)
        assert np.array_equal(a.parent, b.parent)
        assert np.array_equal(a.extendable, b.extendable)

    def test_prefix_consistency(self):
        for spec in (HOM2,
                     TreeSpec.galton_watson(
                         Distribution.uniform([0.0, 1.0, 2.0, 3.0]), seed=42)):
            big = build_truncation(spec, 7)
            small = build_truncation(spec, 4)
            n = small.n_vertices
            assert np.array_equal(big.parent[:n], small.parent)
            assert np.array_equal(big.level_offsets[:6], small.level_offsets)
            # shared-prefix extendability: a frontier vertex of the shallow
            # window extends iff it actually has children in the deeper one
            fr = small.level_slice(4)
            has_child = np.isin(np.arange(fr.start, fr.stop), big.parent)
            assert np.array_equal(small.extendable[fr], has_child)

    def test_truncate_equals_direct_build(self):
        deep = build_truncation(HOM2, 6)
        assert np.array_equal(truncate(deep, 3).parent,
                              build_truncation(HOM2, 3).parent)
        assert np.array_equal(truncate(deep, 3).extendable,
                              build_truncation(HOM2, 3).extendable)

    def test_truncate_homogeneous_reads_no_vertex_array(self, monkeypatch):
        # the prefix of the b-ary layout is the shallower b-ary layout: the
        # same arrays as truncating a plain Tree of the deep one
        deep = build_truncation(TreeSpec.homogeneous(3), 5)
        plain = Tree(parent=deep.parent, frontier=np.ones(3**5, dtype=bool),
                     level_offsets=deep.level_offsets)

        def unread(tree):
            raise AssertionError("read a vertex array")

        for name in ("parent", "extendable"):
            monkeypatch.setattr(HomogeneousLevels, name, property(unread))
        cuts = [truncate(deep, d) for d in range(6)]
        for depth in (-1, 6):
            with pytest.raises(ValidationError, match="0..truncation_depth"):
                truncate(deep, depth)
        monkeypatch.undo()
        for d, cut in enumerate(cuts):
            assert isinstance(cut, HomogeneousLevels)
            assert (cut.b, cut.truncation_depth) == (3, d)
            ref = truncate(plain, d)
            for name in ("parent", "extendable", "level_offsets"):
                assert np.array_equal(getattr(cut, name), getattr(ref, name))

    def test_vertex_budget(self, monkeypatch):
        with pytest.raises(ResourceCapError):
            build_truncation(HOM2, 30)
        monkeypatch.setenv("TREELAB_VERTEX_CAP", "1000")
        with pytest.raises(ResourceCapError):
            build_truncation(HOM2, 12)
        monkeypatch.setenv("TREELAB_VERTEX_CAP", "10000")
        assert build_truncation(HOM2, 12).n_vertices == 8191

    def test_budget_message_names_any_count(self):
        # a count Python prints (up to 4300 digits) appears in full; past that
        # limit, formatting it raised ValueError, and a power of two below it
        # is named instead
        with pytest.raises(ResourceCapError, match=f"needs {'1' * 4001} vertices"):
            build_truncation(TreeSpec.homogeneous(10), 4000)
        n = (10**4401 - 1) // 9
        with pytest.raises(ResourceCapError,
                           match=rf"needs at least 2\*\*{n.bit_length() - 1} vertices"):
            build_truncation(TreeSpec.homogeneous(10), 4400)

    def test_counts_past_int64_ids_are_a_resource_cap(self, monkeypatch):
        # 2**60 doubles are 2**63 bytes: no vertex array of that count exists,
        # and the int64 level offsets overflowed past 2**63 vertices.  The
        # largest counts below the limit construct, with no array built.
        monkeypatch.setenv("TREELAB_VERTEX_CAP", str(10**30))
        for b, depth in ((2, 60), (2, 62), (2, 70), (3, 38), (1, 2**60 - 1)):
            with pytest.raises(ResourceCapError, match=r"fewer than 2\*\*60"):
                HomogeneousLevels(b, depth)
            with pytest.raises(ResourceCapError, match=r"fewer than 2\*\*60"):
                build_truncation(TreeSpec.homogeneous(b), depth)
        assert HomogeneousLevels(2, 59).n_vertices == 2**60 - 1
        assert HomogeneousLevels(1, 2**60 - 2).n_vertices == 2**60 - 1

    def test_cap_env_var(self, monkeypatch):
        monkeypatch.setenv("TREELAB_VERTEX_CAP", "100")
        with pytest.raises(ResourceCapError):
            build_truncation(HOM2, 8)

    def test_conditioned_family_always_survives(self):
        # supercritical with extinction probability about 0.62, so rejection
        # does real work here
        law = Distribution.uniform([0.0, 3.0])
        for seed in range(20):
            spec = TreeSpec.galton_watson(law, seed=seed, condition_nonextinct=True)
            assert build_truncation(spec, 8).has_extendable_frontier

    def test_unconditioned_family_can_die(self):
        law = Distribution.uniform([0.0, 3.0])
        died = sum(not build_truncation(
            TreeSpec.galton_watson(law, seed=s), 8).has_extendable_frontier
            for s in range(40))
        assert died > 0

    def test_offspring_validation(self):
        with pytest.raises(ValidationError):
            TreeSpec.galton_watson(Distribution.uniform([0.5, 2.0]), seed=1)
        with pytest.raises(ValidationError):
            TreeSpec.galton_watson(Distribution.uniform([-1.0, 2.0]), seed=1)

    def test_generated_trees_validate(self, seeded_rng):
        specs = [HOM2, SPINE,
                 TreeSpec.galton_watson(Distribution.uniform([0.0, 1.0, 3.0]),
                                        seed=9)]
        specs += [random_explicit_spec(seeded_rng, seeded_rng.randint(3, 30))
                  for _ in range(10)]
        for spec in specs:
            depth = 5 if spec.kind != "explicit" else int(
                max(build_truncation(spec, 0).truncation_depth, 1))
            if spec.kind == "explicit":
                t_full = _build_explicit_full(spec)
                validate_tree(t_full)
            else:
                validate_tree(build_truncation(spec, depth))


def _build_explicit_full(spec):
    return build_truncation(spec, _depth_of_table(spec.parents))


def _depth_of_table(table) -> int | None:
    """The depth of the tree a parent table describes, None unless the table
    is one tree rooted at 0."""
    n = len(table) + 1
    if not all(0 <= p < n and p != c for c, p in enumerate(table, 1)):
        return None
    depth = {0: 0}
    while len(depth) < n:
        new = {c: depth[p] + 1 for c, p in enumerate(table, 1)
               if p in depth and c not in depth}
        if not new:
            return None
        depth.update(new)
    return max(depth.values())


@st.composite
def _explicit_cases(draw):
    """An explicit spec and a depth: a random recursive tree, path, star or
    comb under scrambled ids, sometimes broken (a bad parent, a self-loop, a
    2-cycle, or a subtree hung from its own descendant), with its marks
    absent, empty, random, or negative and out of range; cut at a depth
    from 0 to past the table's depth."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["recursive", "path", "star", "comb"]))
    up = {"recursive": lambda v: draw(st.integers(0, v - 1)),
          "path": lambda v: v - 1,
          "star": lambda v: 0,
          "comb": lambda v: v - 2 + v % 2}[shape]  # spine 0, 2, 4, ...; odd teeth
    parent = [-1] + [up(v) for v in range(1, n)]
    label = [0] + draw(st.permutations(range(1, n)))
    table = [0] * (n - 1)
    for v in range(1, n):
        table[label[v] - 1] = label[parent[v]]
    if n >= 3:
        fault = draw(st.sampled_from([None] * 4 + ["bad", "self", "cycle", "hang"]))
        a, b = draw(st.lists(st.integers(1, n - 1), min_size=2, max_size=2, unique=True))
        if fault == "bad":
            table[a - 1] = draw(st.sampled_from([-1, n, n + 7, -2**70, 2**70]))
        elif fault == "self":
            table[a - 1] = a
        elif fault == "cycle":
            table[a - 1], table[b - 1] = b, a
        elif fault == "hang":
            below, todo = [], [a]
            while todo:
                u = todo.pop()
                kids = [c for c, p in enumerate(table, 1) if p == u]
                below += kids
                todo += kids
            if below:
                table[a - 1] = draw(st.sampled_from(below))
    marks = draw(st.sampled_from(["absent", "empty", "random", "wild"]))
    if marks == "absent":
        marked = None
    elif marks == "empty":
        marked = []
    else:
        ids = (st.integers(0, n - 1) if marks == "random" else
               st.one_of(st.integers(-3, n + 3), st.sampled_from([-2**70, 2**70])))
        marked = draw(st.lists(ids, max_size=n))
    deepest = _depth_of_table(table)
    depth = draw(st.integers(0, n if deepest is None else deepest + 2))
    return TreeSpec.explicit(table, marked), depth


class TestExplicit:
    @settings(max_examples=400, deadline=None)
    @given(_explicit_cases())
    @example((TreeSpec.explicit([0, 5, 1]), 1))  # bad parent
    @example((TreeSpec.explicit([0, 2, 1]), 1))  # self-loop
    @example((TreeSpec.explicit([0, 3, 2]), 1))  # cycle
    @example((TreeSpec.explicit([0, 3, 4, 2]), 1))  # subtree hung from its descendant
    @example((TreeSpec.explicit([0, 1]), 3))  # past the table's depth
    @example((TreeSpec.explicit([0, 1], []), 3))  # past the depth of a finite table
    @example((TreeSpec.explicit([0, 0, 1, 0], [4, 2, 3]), 2))  # marked vertices stop early
    def test_build_matches_the_dict_oracle(self, case):
        spec, depth = case
        try:
            want = oracles.canonicalize_explicit_by_dicts(spec, depth)
        except ValidationError as exc:
            with pytest.raises(type(exc)) as got:
                build_truncation(spec, depth)
            assert str(got.value) == str(exc)
            return
        t = build_truncation(spec, depth)
        for name, w in zip(("parent", "extendable", "level_offsets"), want):
            got = getattr(t, name)
            assert got.dtype == w.dtype and got.tolist() == w.tolist()

    def test_parent_list_file(self, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text("0 0 1 1 2\n")
        spec = load_parent_list(path)
        t = build_truncation(spec, 2)
        assert list(level_sizes(t)) == [1, 2, 3]

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            build_truncation(TreeSpec.explicit([2, 1]), 1)

    def test_depth_beyond_table(self):
        with pytest.raises(ValidationError):
            build_truncation(TreeSpec.explicit([0, 1]), 5)

    def test_marked_extendable(self):
        # path of length 2 with a side leaf at depth 1; only the path tip marked
        spec = TreeSpec.explicit([0, 0, 1], extendable=[3])
        t = build_truncation(spec, 2)
        assert t.extendable.sum() == 1
        assert oracles.depths_by_climbing(t)[t.extendable.argmax()] == 2

    def test_extendable_mark_below_depth_rejected(self):
        # vertex 2 is a depth-1 leaf; marking it extendable contradicts a
        # depth-2 window that claims to reach its frontier
        spec = TreeSpec.explicit([0, 0, 1], extendable=[2, 3])
        with pytest.raises(ValidationError):
            build_truncation(spec, 2)


class TestContraction:
    def test_identity(self):
        for t in (build_truncation(HOM2, 4), build_truncation(SPINE, 4)):
            c = contract_k(t, 1)
            for name in ("parent", "extendable", "level_offsets"):
                assert np.array_equal(getattr(c, name), getattr(t, name))
            assert np.array_equal(c.source_vertices, np.arange(t.n_vertices))
            assert (c.frontier is None) == (t.frontier is None)
            for arr in (c.parent, c.frontier, c.level_offsets, c.source_vertices):
                assert arr is None or not arr.flags.writeable

    def test_frontier_passes_through(self):
        # the contraction's deepest level is the source's: the same flags,
        # frozen, in a view that leaves the source's own flags alone
        gw = TreeSpec.galton_watson(Distribution.uniform([0.0, 1.0, 2.0, 3.0]), seed=42)
        t = build_truncation(gw, 6)
        writable = Tree(parent=t.parent, frontier=t.frontier.copy(),
                        level_offsets=t.level_offsets)
        assert not t.frontier.all()
        for k in (2, 3, 6):
            c = contract_k(writable, k)
            assert c.frontier.tolist() == t.frontier.tolist()
            assert np.shares_memory(c.frontier, writable.frontier)
            assert not c.frontier.flags.writeable
            assert writable.frontier.flags.writeable
            assert c.extendable.tolist() == t.extendable[c.source_vertices].tolist()
            assert contract_k(build_truncation(HOM2, 6), k).frontier is None

    def test_homogeneous_square(self):
        c = contract_k(build_truncation(HOM2, 4), 2)
        assert list(level_sizes(c)) == [1, 4, 16]
        validate_tree(c)
        # every contracted vertex has exactly 4 children: the square tree
        kids = np.bincount(c.parent[1:], minlength=c.n_vertices)
        assert set(kids[oracles.depths_by_climbing(c) < c.truncation_depth]) == {4}

    def test_spine_contraction_by_hand(self):
        c = contract_k(build_truncation(SPINE, 4), 2)
        validate_tree(c)
        assert list(level_sizes(c)) == [1, 4, 16]
        assert c.extendable.sum() == 1
        # the surviving ray: contracted spine vertices sit at original 2, 4
        src = c.source_vertices
        spine_new = np.nonzero(c.extendable)[0][0]
        orig = build_truncation(SPINE, 4)
        assert oracles.depths_by_climbing(orig)[src[spine_new]] == 4
        # walking two original parents from the deep spine vertex lands on the
        # contracted parent's source vertex
        up2 = orig.parent[orig.parent[src[spine_new]]]
        assert src[c.parent[spine_new]] == up2

    def test_level_sizes_subsample_without_dead_ends(self):
        t = build_truncation(TreeSpec.homogeneous(3), 6)
        c = contract_k(t, 3)
        assert list(level_sizes(c)) == list(level_sizes(t))[::3]

    def test_depth_divisibility(self):
        with pytest.raises(ValidationError):
            contract_k(build_truncation(HOM2, 5), 2)


class TestLevelVocabulary:
    def test_level_parents_match_level_search(self, seeded_rng):
        for t in assorted_trees(seeded_rng):
            for k in range(1, t.truncation_depth + 1):
                group, m = t.level_parents(k)
                want, want_m = oracles.level_parents_by_search(t, k)
                assert group.dtype == np.int64 and group.tolist() == want
                assert m == want_m

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_homogeneous_levels_match_the_built_tree(self, b):
        for d in range(8):
            levels = build_truncation(TreeSpec.homogeneous(b), d)
            assert type(levels) is HomogeneousLevels
            # the b-ary heap layout as a plain tree, canonicalized from a
            # literal parent table
            n = sum(b**j for j in range(d + 1))
            t = build_truncation(TreeSpec.explicit([(v - 1) // b for v in range(1, n)]), d)
            assert type(t) is Tree
            assert levels.truncation_depth == d
            assert levels.n_vertices == t.n_vertices
            assert levels.has_extendable_frontier
            for k in range(d + 1):
                assert levels.level_slice(k) == t.level_slice(k)
            for k in range(1, d + 1):
                group, m = levels.level_parents(k)
                want, want_m = t.level_parents(k)
                assert group.dtype == np.int64 and group.tolist() == want.tolist()
                assert m == want_m
            # the arrays, built on first read, frozen
            for name in ("level_offsets", "parent"):
                got, want = getattr(levels, name), getattr(t, name)
                assert got.dtype == want.dtype and got.tolist() == want.tolist()
                assert not got.flags.writeable
            # every frontier vertex extends: no flags are stored
            assert levels.frontier is None and t.frontier.all()
            assert levels.extendable.dtype == bool
            assert levels.extendable.tolist() == t.extendable.tolist()
            validate_tree(levels)

    def test_child_sums_add_children_in_id_order(self, seeded_rng):
        for t in assorted_trees(seeded_rng):
            for k in range(1, t.truncation_depth + 1):
                sl = t.level_slice(k)
                vals = 10.0 ** np.array([seeded_rng.uniform(-300, 300)
                                         for _ in range(sl.start, sl.stop)])
                want = []
                for p in range(t.level_slice(k - 1).start, t.level_slice(k - 1).stop):
                    acc = 0.0
                    for c in range(t.children_slice(p).start, t.children_slice(p).stop):
                        acc += vals[c - sl.start]
                    want.append(acc.hex())
                assert [x.hex() for x in t.child_sums(k, vals)] == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_homogeneous_child_sums_match_the_built_tree(self, b, data):
        # the conductance recursion sums h >= +0.0, which may be 0.0, below
        # the normal range, near the largest double or inf; values near 1
        # and 2**-53 make the rounding depend on the order of the adds
        value = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 2.0**-53,
                                           1.7976931348623157e308, math.inf]),
                          st.floats(0.5, 2.0), st.floats(0.0))
        d = data.draw(st.integers(1, 6 if b <= 2 else 4 if b == 3 else 3))
        k = data.draw(st.integers(1, d))
        vals = np.array(data.draw(st.lists(value, min_size=b**k, max_size=b**k)))
        before = vals.copy()
        got = build_truncation(TreeSpec.homogeneous(b), d).child_sums(k, vals)
        # the bincount sums of the heap layout as a plain tree
        n = sum(b**j for j in range(d + 1))
        want = build_truncation(TreeSpec.explicit([(v - 1) // b for v in range(1, n)]),
                                d).child_sums(k, vals)
        assert got.dtype == want.dtype == np.float64
        assert [x.hex() for x in got] == [x.hex() for x in want]
        assert np.array_equal(vals, before)

    def test_climb_matches_step_walk(self, seeded_rng):
        for t in assorted_trees(seeded_rng):
            ids = np.arange(-1, t.n_vertices, dtype=np.int64)
            for steps in range(t.truncation_depth + 2):
                got = ids
                for _ in range(steps):
                    got = t.climb(got)
                assert got.tolist() == [oracles.climb_by_steps(t.parent, int(v), steps)
                                        for v in ids]

    def test_and_sweep_matches_vertex_loop(self, seeded_rng, monkeypatch):
        monkeypatch.setattr("treelab.trees._SWEEP_CHUNK", 3)  # chunks split levels
        for t in assorted_trees(seeded_rng):
            open_edges = np.array([seeded_rng.random() < 0.7 for _ in range(t.n_vertices)])
            open_edges[0] = True
            reached = t.sweep_down(open_edges, np.logical_and)
            assert reached.dtype == bool
            assert reached.tolist() == oracles.reached_by_loop(t.parent, open_edges)

    @pytest.mark.parametrize("spec", [
        HOM2, SPINE, TreeSpec.spine_with_leaves(0),
        TreeSpec.galton_watson(Distribution.uniform([0.0, 1.0, 2.0]), seed=5),
        TreeSpec.galton_watson(Distribution.uniform([0.0, 1.0, 2.0]), seed=5,
                               condition_nonextinct=True),
        TreeSpec.explicit([0, 0, 1]), TreeSpec.explicit([0, 0, 1], extendable=[])],
        ids=["hom2", "spine", "ray", "gw", "gw-conditioned", "explicit", "finite"])
    def test_depth_zero_is_the_one_vertex_tree(self, spec):
        t = build_truncation(spec, 0)
        validate_tree(t)
        assert t.truncation_depth == 0
        assert t.parent.dtype == t.level_offsets.dtype == np.int64
        assert t.parent.tolist() == [-1] and t.level_offsets.tolist() == [0, 1]
        assert t.extendable.dtype == bool and t.extendable.shape == (1,)
        # the root extends iff the spec's tree goes on below it
        assert t.extendable[0] == truncate(build_truncation(spec, 1), 0).extendable[0]


class TestHomogeneousOverrides:
    """Each arithmetic read of `HomogeneousLevels` has the bits of the base
    `Tree` method run on the same truncation's arrays, and builds none of
    them."""

    @pytest.fixture(params=[(b, d) for b in (1, 2, 3, 4) for d in range(9)],
                    ids=lambda bd: f"b{bd[0]}-depth{bd[1]}")
    def pair(self, request, monkeypatch):
        b, d = request.param
        arrays = HomogeneousLevels(b, d)
        plain = Tree(parent=arrays.parent, frontier=np.ones(b**d, dtype=bool),
                     level_offsets=arrays.level_offsets)
        levels = HomogeneousLevels(b, d)

        def unread(tree):
            raise AssertionError("read the extendable flags")

        monkeypatch.setattr(HomogeneousLevels, "extendable", property(unread))
        yield levels, plain
        assert "parent" not in vars(levels)

    def test_children_slice(self, pair):
        levels, plain = pair
        for v in range(levels.n_vertices):  # the frontier included
            assert levels.children_slice(v) == plain.children_slice(v)

    def test_climb(self, pair):
        levels, plain = pair
        front = levels.level_slice(levels.truncation_depth)
        ids = np.concatenate(([-1, 0, -1, front.stop - 1, front.start],
                              np.arange(levels.n_vertices)))
        for _ in range(2):  # the second climb starts from parents and -1s
            got, want = levels.climb(ids), plain.climb(ids)
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()
            ids = got

    def test_add_sweep(self, pair, seeded_rng):
        levels, plain = pair
        pool = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 1e308,
                -1e308, 5e-324, 1.0, 2.0**-53]
        vals = np.array([seeded_rng.choice(pool) if seeded_rng.random() < 0.5
                         else seeded_rng.uniform(-3, 3)
                         for _ in range(levels.n_vertices)])
        before = vals.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            want = plain.sweep_down(vals)
            assert_bits_equal(vals, before)
            got = levels.sweep_down(vals)
            assert_bits_equal(got, want)
            assert_bits_equal(vals, before)
            out = np.full_like(vals, 7.0)
            assert levels.sweep_down(vals, out=out) is out
            assert_bits_equal(out, want)
            assert_bits_equal(vals, before)
            assert levels.sweep_down(vals, out=vals) is vals
            assert_bits_equal(vals, want)

    def test_and_sweep(self, pair, seeded_rng):
        levels, plain = pair
        flags = np.array([seeded_rng.random() < 0.8 for _ in range(levels.n_vertices)])
        want = plain.sweep_down(flags, np.logical_and)
        got = levels.sweep_down(flags, np.logical_and)
        assert got.dtype == want.dtype == bool and got is not flags
        assert got.tolist() == want.tolist()
        out = np.zeros_like(flags)
        assert levels.sweep_down(flags, np.logical_and, out=out) is out
        assert out.tolist() == want.tolist()
        assert levels.sweep_down(flags, np.logical_and, out=flags) is flags
        assert flags.tolist() == want.tolist()

    def test_sweep_rejects_a_bad_out(self, pair):
        levels, plain = pair
        vals = np.ones(levels.n_vertices)
        for bad in (np.ones(levels.n_vertices, dtype=np.float32),
                    np.ones(levels.n_vertices + 1)):
            for tree in (levels, plain):
                with pytest.raises(ValueError, match="shape and dtype"):
                    tree.sweep_down(vals, out=bad)

    def test_lineage(self, pair):
        levels, plain = pair
        lineage = extendable_lineage(levels)
        assert lineage.dtype == bool and lineage.shape == (levels.n_vertices,)
        assert lineage.tolist() == extendable_lineage(plain).tolist()
        assert extendable_lineage(levels) is lineage
        assert not lineage.flags.writeable
        assert lineage.strides == (0,)  # one flag, no vertex array


class TestDepthFromOffsets:
    """Every depth answer comes from `level_offsets`; judge it against the
    depths found by climbing `parent`."""

    def test_depths_match_the_climbing_oracle(self, seeded_rng):
        trees = []
        for t in assorted_trees(seeded_rng):
            trees += [t] + [contract_k(t, k) for k in range(2, t.truncation_depth + 1)
                            if t.truncation_depth % k == 0]
        law = Distribution.uniform([0.5, 2.0])
        died = 0
        for i, t in enumerate(trees):
            depth = oracles.depths_by_climbing(t)
            n, v = t.truncation_depth, t.n_vertices
            assert t.depth_of(np.arange(v)).tolist() == depth.tolist()
            assert t.level_offsets.tolist() == [int((depth < k).sum())
                                                for k in range(n + 2)]
            assert depth.max() <= n
            died += int(depth.max()) < n
            for u in range(v):
                sl = t.children_slice(u)
                assert list(range(sl.start, sl.stop)) == np.flatnonzero(t.parent == u).tolist()
            m, ext = _tree_level_counts(t)
            lineage = np.array(oracles.lineage_by_ancestors(t))
            assert m.dtype == ext.dtype == np.float64
            assert m.tolist() == [float((depth == k).sum()) for k in range(n + 1)]
            assert ext.tolist() == [float(lineage[depth == k].sum()) for k in range(n + 1)]
            sample = percolate_sample(t, 0.7, i)
            assert sample.reached_depth == depth[sample.reached].max()
            if v > 1:
                walk = simulate_walk(sample_environment(t, law, i), 50, i,
                                     record_transitions=True)
                visited = {0}.union(*walk.transition_counts.values())
                assert walk.max_depth == depth[sorted(visited)].max()
        assert died > 0  # some trees end in empty levels

    def test_contraction_keeps_every_kth_level(self, seeded_rng):
        for t in assorted_trees(seeded_rng):
            depth = oracles.depths_by_climbing(t)
            for k in range(1, t.truncation_depth + 1):
                if t.truncation_depth % k:
                    continue
                c = contract_k(t, k)
                assert c.truncation_depth == t.truncation_depth // k
                assert c.source_vertices.tolist() == np.flatnonzero(depth % k == 0).tolist()
                assert (oracles.depths_by_climbing(c).tolist()
                        == (depth[c.source_vertices] // k).tolist())


def _hand_built(parent=(-1, 0, 0, 1, 1, 2), offsets=(0, 1, 3, 6),
                frontier=(1, 1, 1)) -> Tree:
    return Tree(parent=np.array(parent, dtype=np.int64),
                frontier=np.array(frontier, dtype=bool),
                level_offsets=np.array(offsets, dtype=np.int64))


class TestValidateTree:
    def test_hand_built_tree_is_valid(self):
        validate_tree(_hand_built())

    @pytest.mark.parametrize("fields, message", [
        ({"parent": (-1, 0, 0, 0, 1, 2)}, "level above"),
        ({"parent": (-1, 0, -1, 1, 1, 2)}, "level above"),
        ({"parent": (-1, 0, 0, 1, 1, 6)}, "level above"),
        ({"parent": (-1, 0, 0, 1, 1, 4)}, "level above"),
        ({"parent": (-1, 0, 0, 2, 1, 1)}, "grouped by parent"),
        ({"offsets": (0, 1, 3, 5)}, "end at V"),
        ({"offsets": (0, 1, 4, 3, 6)}, "nondecreasing"),
        ({"offsets": (0, 2, 3, 6)}, "alone at depth 0"),
        ({"parent": (0, 0, 0, 1, 1, 2)}, "root"),
        ({"frontier": (1, 1)}, "one flag per deepest-level vertex"),
    ], ids=["parent-not-a-level-up", "parent-minus-one", "parent-past-V",
            "parent-in-own-level", "ungrouped",
            "offsets-short-of-V", "offsets-decrease", "root-not-alone", "root-has-parent",
            "frontier-wrong-length"])
    def test_rejects(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            validate_tree(_hand_built(**fields))


class TestBuildMemory:
    def test_build_holds_and_peaks_at_few_bytes_per_vertex(self):
        tracemalloc.start()
        try:
            t = build_truncation(HOM2, 18)
            assert tracemalloc.get_traced_memory()[1] < 4096  # no vertex array yet
            t.parent, t.extendable
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # once read, parent (8 B) is held, built in place; the extendable
        # flags (1 B) are built on each read and not kept
        assert peak / t.n_vertices < 20
        vertex_arrays = sorted(name for name, value in vars(t).items()
                               if isinstance(value, np.ndarray)
                               and len(value) == t.n_vertices)
        assert vertex_arrays == ["parent"]

    def test_built_tree_holds_parent_and_frontier(self):
        # a family tree stores 8 B of parent per vertex and one flag per
        # deepest-level vertex, beside one offset per level
        gw = TreeSpec.galton_watson(Distribution.uniform([0.0, 1.0, 2.0, 3.0]), seed=7,
                                    condition_nonextinct=True)
        t = build_truncation(gw, 16)
        arrays = {name: value for name, value in vars(t).items()
                  if isinstance(value, np.ndarray)}
        assert sorted(arrays) == ["frontier", "level_offsets", "parent"]
        assert len(arrays["frontier"]) == t.level_sizes()[-1]
        assert not arrays["frontier"].all()  # dead ends are stored as such
        assert sum(a.nbytes for a in arrays.values()) / t.n_vertices < 9


class TestCutsetHelpers:
    def test_level_cutsets_are_cutsets(self):
        t = build_truncation(HOM2, 4)
        for k in (1, 2, 4):
            assert is_cutset(t, level_cutset(t, k))

    def test_non_antichain_rejected(self):
        t = build_truncation(HOM2, 3)
        assert not is_cutset(t, [1, 3])  # 1 is an ancestor of 3

    def test_partial_level_not_covering(self):
        t = build_truncation(HOM2, 3)
        full = list(level_cutset(t, 2))
        assert not is_cutset(t, full[:-1])

    def test_spine_leaf_free_cutsets(self):
        t = build_truncation(SPINE, 4)
        # the spine vertex alone cuts every extendable ray
        assert is_cutset(t, level_cutset(t, 3))
        assert len(level_cutset(t, 3)) == 1

    def test_extendable_lineage(self):
        t = build_truncation(SPINE, 3)
        alive = extendable_lineage(t)
        # exactly the spine path (root included) is alive
        assert alive.sum() == 4


class TestLineageCache:
    def test_same_read_only_array(self):
        t = build_truncation(HOM2, 6)
        first = extendable_lineage(t)
        assert extendable_lineage(t) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = False
        assert first.all()

    def test_matches_ancestor_climb(self, seeded_rng):
        gw = TreeSpec.galton_watson(Distribution.uniform([0.0, 1.0, 2.0]), seed=3)
        bases = [build_truncation(HOM2, 6), build_truncation(SPINE, 6),
                 build_truncation(gw, 6),
                 build_truncation(TreeSpec.explicit([0, 0, 1], extendable=[]), 2)]
        for _ in range(20):
            spec = random_explicit_spec(seeded_rng, seeded_rng.randint(2, 30))
            depth = seeded_rng.randint(1, table_depth(spec.parents))
            bases.append(build_truncation(spec, depth))
        trees = []
        for t in bases:
            trees.append(t)
            trees.extend(truncate(t, d) for d in range(t.truncation_depth))
            trees.extend(contract_k(t, k) for k in range(1, t.truncation_depth + 1)
                         if t.truncation_depth % k == 0)
        assert any(not extendable_lineage(t).all() for t in trees)
        for t in trees:
            cached = extendable_lineage(t)
            assert cached.tolist() == oracles.lineage_by_ancestors(t)
            assert extendable_lineage(t) is cached

    def test_truncate_gets_its_own_mask(self):
        # a dead end at depth 2 is alive in the depth-1 window (its parent
        # keeps children there) but not in the depth-2 window
        t = build_truncation(TreeSpec.explicit([0, 0, 1], extendable=[]), 2)
        assert not extendable_lineage(t).any()
        t1 = truncate(t, 1)
        assert extendable_lineage(t1).tolist() == [True, True, False]


class TestSerialization:
    @pytest.mark.parametrize("spec", [
        HOM2,
        SPINE,
        TreeSpec.spine_with_leaves(leaf_rule=3),
        TreeSpec.spine_with_leaves(leaf_rule=(1, 2, 3)),
        TreeSpec.galton_watson(Distribution.uniform([0.0, 2.0]), seed=7,
                               condition_nonextinct=True),
        TreeSpec.explicit([0, 0, 1], extendable=[3]),
    ])
    def test_round_trip(self, spec):
        doc = spec.to_json()
        assert doc["schema"] == 1
        back = TreeSpec.from_json(doc)
        assert back == spec

    def test_callable_rule_rejected(self):
        with pytest.raises(ValidationError, match="bad leaf rule"):
            TreeSpec.spine_with_leaves(leaf_rule=lambda d: d + 1)

    def test_bad_documents(self):
        with pytest.raises(ValidationError):
            TreeSpec.from_json({"kind": "mystery"})
        with pytest.raises(ValidationError):
            TreeSpec.from_json({})

    @pytest.mark.parametrize("doc,missing", [
        ({"kind": "homogeneous"}, "b"),
        ({"kind": "galton_watson", "seed": 1}, "offspring"),
        ({"kind": "galton_watson",
          "offspring": {"support": [2], "weights": [1.0]}}, "seed"),
        ({"kind": "explicit"}, "parents"),
    ])
    def test_missing_field_named(self, doc, missing):
        with pytest.raises(ValidationError, match=f"'{missing}'"):
            TreeSpec.from_json(doc)

    @pytest.mark.parametrize("value,vertices", [
        (False, 2), (True, 12), (None, 2),
    ], ids=["false", "true", "missing"])
    def test_condition_flag_is_a_json_bool(self, value, vertices):
        doc = {"kind": "galton_watson", "seed": 3,
               "offspring": {"support": [0, 1, 2], "weights": [0.5, 0.25, 0.25]}}
        if value is not None:
            doc["condition_nonextinct"] = value
        spec = TreeSpec.from_json(doc)
        assert spec.condition_nonextinct is bool(value)
        assert build_truncation(spec, 6).n_vertices == vertices

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_condition_flag_rejects_non_bools(self, value):
        doc = {"kind": "galton_watson", "seed": 3, "condition_nonextinct": value,
               "offspring": {"support": [0, 1, 2], "weights": [0.5, 0.25, 0.25]}}
        with pytest.raises(ValidationError, match="condition_nonextinct"):
            TreeSpec.from_json(doc)
