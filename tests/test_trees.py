"""Tree generators, truncations, contraction, and serialization."""

import numpy as np
import pytest

from treelab.errors import ResourceCapError, ValidationError
from treelab.ratecalc import Distribution
from treelab.trees import (TreeSpec, build_truncation, contract_k,
                           extendable_lineage, level_sizes, load_parent_list,
                           truncate, validate_tree)

from conftest import random_explicit_spec, table_depth
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
            assert np.array_equal(big.depth[:n], small.depth)
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

    def test_vertex_budget(self):
        with pytest.raises(ResourceCapError):
            build_truncation(HOM2, 30)
        with pytest.raises(ResourceCapError):
            build_truncation(HOM2, 12, vertex_cap=1000)
        assert build_truncation(HOM2, 12, vertex_cap=10_000).n_vertices == 8191

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
    depths = {0: 0}
    for child0, par in enumerate(spec.parents):
        depths[child0 + 1] = None
    # resolve depths iteratively (tables are tiny)
    changed = True
    while changed:
        changed = False
        for child0, par in enumerate(spec.parents):
            c = child0 + 1
            if depths.get(c) is None and depths.get(par) is not None:
                depths[c] = depths[par] + 1
                changed = True
    return build_truncation(spec, max(depths.values()))


class TestExplicit:
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
        assert t.depth[t.extendable.argmax()] == 2

    def test_extendable_mark_below_depth_rejected(self):
        # vertex 2 is a depth-1 leaf; marking it extendable contradicts a
        # depth-2 window that claims to reach its frontier
        spec = TreeSpec.explicit([0, 0, 1], extendable=[2, 3])
        with pytest.raises(ValidationError):
            build_truncation(spec, 2)


class TestContraction:
    def test_identity(self):
        t = build_truncation(HOM2, 4)
        c = contract_k(t, 1)
        assert np.array_equal(c.parent, t.parent)
        assert np.array_equal(c.source_vertices, np.arange(t.n_vertices))

    def test_homogeneous_square(self):
        c = contract_k(build_truncation(HOM2, 4), 2)
        assert list(level_sizes(c)) == [1, 4, 16]
        validate_tree(c)
        # every contracted vertex has exactly 4 children: the square tree
        kids = np.bincount(c.parent[1:], minlength=c.n_vertices)
        assert set(kids[c.depth < c.truncation_depth]) == {4}

    def test_spine_contraction_by_hand(self):
        c = contract_k(build_truncation(SPINE, 4), 2)
        validate_tree(c)
        assert list(level_sizes(c)) == [1, 4, 16]
        assert c.extendable.sum() == 1
        # the surviving ray: contracted spine vertices sit at original 2, 4
        src = c.source_vertices
        spine_new = np.nonzero(c.extendable)[0][0]
        orig = build_truncation(SPINE, 4)
        assert orig.depth[src[spine_new]] == 4
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

    def test_callable_rule_not_serializable(self):
        spec = TreeSpec.spine_with_leaves(leaf_rule=lambda d: d + 1)
        assert build_truncation(spec, 3).n_vertices == 1 + 2 + 3 + 4
        with pytest.raises(ValidationError):
            spec.to_json()

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
