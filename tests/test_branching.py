"""Cutset minima and branching-number intervals.

Hand-derived DP values and closed forms pin the cutset DP; the interval
estimator is checked on generators whose branching numbers are known.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from treelab import branching
from treelab.branching import (branching_number, cutset_min, estimate_branching,
                               growth_rate, log_cutset_min)
from treelab.errors import ValidationError
from treelab.ratecalc import Distribution
from treelab.trees import TreeSpec, build_truncation, contract_k, truncate

import oracles
from conftest import random_explicit_spec, table_depth

HOM2 = TreeSpec.homogeneous(2)
SPINE = TreeSpec.spine_with_leaves()


class TestCutsetMin:
    def test_homogeneous_balanced(self):
        # at lambda = b every level cut costs exactly 1
        for depth in (2, 4, 7):
            t = build_truncation(HOM2, depth)
            assert float(cutset_min(t, 2.0)) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneous_supercritical_by_hand(self):
        t = build_truncation(HOM2, 3)
        assert float(cutset_min(t, 3.0)) == pytest.approx(8 / 27, rel=1e-12)

    def test_homogeneous_closed_form(self):
        # level cuts cost (b/lambda)**k for k in 1..n (the root is excluded,
        # so k = 0 is unavailable): the cheapest is the first level when
        # lambda < b and the deepest when lambda >= b
        for lam in (1.5, 2.0, 2.5, 4.0):
            for depth in (3, 6):
                t = build_truncation(HOM2, depth)
                expect = min((2.0 / lam) ** k for k in range(1, depth + 1))
                assert float(cutset_min(t, lam)) == pytest.approx(expect, rel=1e-10)

    def test_spine_only_the_ray_needs_cutting(self):
        for depth in (3, 6, 9):
            t = build_truncation(SPINE, depth)
            assert float(cutset_min(t, 1.5)) == pytest.approx(1.5 ** -depth,
                                                              rel=1e-12)

    def test_nonincreasing_in_lambda(self):
        t = build_truncation(HOM2, 6)
        vals = [float(cutset_min(t, lam)) for lam in np.linspace(0.5, 5.0, 20)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_nonincreasing_in_depth(self):
        deep = build_truncation(HOM2, 8)
        for lam in (1.7, 2.0, 2.9):
            vals = [float(cutset_min(truncate(deep, d), lam)) for d in range(2, 9)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_finite_tree_flag(self):
        spec = TreeSpec.explicit([0, 0, 1], extendable=[])
        t = build_truncation(spec, 2)
        v = cutset_min(t, 2.0)
        assert float(v) == 0.0 and v.finite_tree

    def test_contraction_consistency(self):
        # cutting the squared tree at lambda**2 costs the same as cutting the
        # original at lambda, wherever the deepest level is the cheapest cut
        # (lambda >= b; below that the two trees' first-level cuts differ)
        from treelab.trees import contract_k
        t = build_truncation(HOM2, 8)
        c = contract_k(t, 2)
        for lam in (2.0, 2.5, 3.0):
            assert float(cutset_min(c, lam**2)) == pytest.approx(
                float(cutset_min(t, lam)), rel=1e-10)

    def test_against_exhaustive_enumeration(self, seeded_rng):
        for _ in range(25):
            spec = random_explicit_spec(seeded_rng, seeded_rng.randint(3, 12))
            t = _full_depth_tree(spec)
            lam = seeded_rng.uniform(0.6, 3.0)
            caps = lam ** -t.depth.astype(float)
            assert float(cutset_min(t, lam)) == pytest.approx(
                oracles.min_cutset_sum(t, caps), rel=1e-9)

    def test_lambda_validation(self):
        t = build_truncation(HOM2, 3)
        with pytest.raises(ValidationError):
            cutset_min(t, 0.0)


def _full_depth_tree(spec):
    probe = build_truncation(spec, 0)
    depth = 0
    while True:
        try:
            tree = build_truncation(spec, depth + 1)
        except ValidationError:
            return build_truncation(spec, depth)
        depth += 1
        if depth > 64:
            return tree


@st.composite
def explicit_trees(draw):
    """Random parent tables cut at a random depth, so shallower leaves are
    dead ends; half of them mark a subset of the cut level extendable."""
    n = draw(st.integers(2, 40))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    depth = draw(st.integers(1, table_depth(parents)))
    marks = None
    if draw(st.booleans()):
        dep = [0]
        for par in parents:
            dep.append(dep[par] + 1)
        marks = draw(st.lists(st.sampled_from(
            [v for v in range(n) if dep[v] == depth]), unique=True))
    return build_truncation(TreeSpec.explicit(parents, marks), depth)


@st.composite
def gw_trees(draw):
    """Family trees with P(0) > 0, conditioned on surviving or not, and
    without dead ends (P(0) = 0), where every level is alive and many
    parents have three or more children: the case whose per-parent sum
    order a segment reduction would change."""
    p0 = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.45)))
    law = Distribution.from_pairs([(0, p0)] * (p0 > 0) +
                                  [(c, (1 - p0) / 4) for c in (1, 2, 3, 4)])
    spec = TreeSpec.galton_watson(law, draw(st.integers(0, 2**31)),
                                  condition_nonextinct=draw(st.booleans()))
    return build_truncation(spec, draw(st.integers(1, 8)))


@st.composite
def derived_trees(draw):
    """Spines, and truncations and k-contractions of the trees above."""
    kind = draw(st.sampled_from(["spine", "truncate", "contract"]))
    if kind == "spine":
        rule = draw(st.one_of(st.just("pow2_minus_one"), st.integers(0, 4)))
        return build_truncation(TreeSpec.spine_with_leaves(rule),
                                draw(st.integers(1, 8)))
    base = draw(st.one_of(explicit_trees(), gw_trees()))
    if kind == "truncate":
        return truncate(base, draw(st.integers(1, base.truncation_depth)))
    k = draw(st.integers(1, 3))
    if base.truncation_depth < k:
        k = 1
    return contract_k(truncate(base, base.truncation_depth // k * k), k)


LAMBDAS = st.one_of(
    st.sampled_from([1e-3, 0.5, 1.0, 2.0, 3.0, 2.0**40]),
    st.floats(math.log(1e-3), 40 * math.log(2.0)).map(
        lambda x: min(math.exp(x), 2.0**40)))


class TestCutsetOracle:
    """`log_cutset_min` against the whole-tree masked DP, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(explicit_trees(), gw_trees(), derived_trees()), LAMBDAS)
    @example(build_truncation(TreeSpec.explicit([0, 0, 0]), 1), 2.0)
    @example(build_truncation(TreeSpec.explicit([0, 0, 1], extendable=[2]), 1), 1e-3)
    @example(build_truncation(TreeSpec.homogeneous(2), 1), 2.0**40)
    @example(contract_k(build_truncation(TreeSpec.homogeneous(2), 8), 2), 3.0)
    def test_matches_masked_dp(self, tree, lam):
        assert log_cutset_min(tree, lam).hex() == \
            oracles.log_cutset_min_masked(tree, lam).hex()

    def test_depth_one_level_sum(self):
        # no level is swept at depth 1: the value is log(#extendable / lam)
        t = build_truncation(TreeSpec.explicit([0, 0, 0, 1], extendable=[1, 3]), 1)
        assert log_cutset_min(t, 2.0) == pytest.approx(math.log(2 / 2.0), abs=1e-15)
        assert log_cutset_min(t, 2.0) == oracles.log_cutset_min_masked(t, 2.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_benchmark_law_family_trees(self, seed):
        # the benchmark's conditioned family law at depth 12 and its half:
        # no dead ends, up to three children per parent.  A per-parent sum
        # in another association (np.add.reduceat) moves the last bit of the
        # result at a few of these (seed, lambda) pairs, near lambda = br.
        spec = TreeSpec.galton_watson(
            Distribution.from_pairs([(1, 0.3), (2, 0.4), (3, 0.3)]), seed,
            condition_nonextinct=True)
        deep = build_truncation(spec, 12)
        for tree in (deep, truncate(deep, 6)):
            for lam in (1e-3, 1.0, 1.9, 2.0, 2.1, 2.5, 3.0, 2.0**40):
                assert log_cutset_min(tree, lam).hex() == \
                    oracles.log_cutset_min_masked(tree, lam).hex()


class TestBranchingNumber:
    def test_homogeneous_two(self):
        est = branching_number(HOM2, 16, 0.05)
        assert est.lo >= 2 - 0.05 and est.hi <= 2 + 0.05
        assert not est.inconclusive

    def test_homogeneous_three(self):
        est = branching_number(TreeSpec.homogeneous(3), 10, 0.05)
        assert 3.0 in est and est.width <= 2 * 0.05 + 1e-9

    def test_spine_is_one(self):
        est = branching_number(SPINE, 16, 0.05)
        assert 1.0 in est
        assert est.width <= 0.05 + 1e-9

    def test_family_tree_mean(self):
        # growth of a surviving family tree concentrates on the offspring mean
        for seed in (0, 1, 2):
            spec = TreeSpec.galton_watson(Distribution.uniform([1.0, 2.0]),
                                          seed=seed)
            est = branching_number(spec, 24, 0.1)
            assert 1.5 in est, (est.lo, est.hi)

    def test_conditioned_family_tree(self):
        spec = TreeSpec.galton_watson(Distribution.uniform([0.0, 3.0]), seed=11,
                                      condition_nonextinct=True)
        est = branching_number(spec, 30, 0.1)
        assert 1.5 in est

    def test_estimates_kept_at_or_above_one(self):
        # a critical family tree conditioned to survive: the de-biased decay
        # estimates fall below 1 (their midpoint was 0.933 here), under the
        # floor of the bisection
        critical = Distribution.from_pairs([(0, 0.25), (1, 0.5), (2, 0.25)])
        spec = TreeSpec.galton_watson(critical, seed=5, condition_nonextinct=True)
        est = branching_number(spec, 12, 0.05)
        assert 1.0 == est.lo <= est.hi
        assert 1.0 in est

    def test_finite_tree(self):
        spec = TreeSpec.explicit([0, 0, 1], extendable=[])
        est = branching_number(spec, 4, 0.1)
        assert est.lo == est.hi == 0.0
        assert "finite" in est.note

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            branching_number(HOM2, 3, 0.1)
        with pytest.raises(ValidationError):
            estimate_branching(build_truncation(HOM2, 3), 0.1)

    def test_arguments_checked_before_building(self, monkeypatch):
        def unbuildable(*args, **kwargs):
            raise AssertionError("built a tree for invalid arguments")

        monkeypatch.setattr(branching, "build_truncation", unbuildable)
        for depth, tol in ((3, 0.1), (8, 0.0), (8, -1.0)):
            with pytest.raises(ValidationError):
                branching_number(HOM2, depth, tol)

    @pytest.mark.parametrize("spec,depth", [
        (HOM2, 10),
        (TreeSpec.galton_watson(Distribution.uniform([0.0, 3.0]), seed=11,
                                condition_nonextinct=True), 14),
        (TreeSpec.explicit([0, 0, 1], extendable=[]), 4),
    ], ids=["hom2", "conditioned-gw", "finite"])
    def test_built_tree_matches_spec_wrapper(self, spec, depth):
        est = estimate_branching(build_truncation(spec, depth), 0.05)
        assert est == branching_number(spec, depth, 0.05)


class TestGrowthRate:
    def test_values(self):
        assert growth_rate(build_truncation(HOM2, 10)) == pytest.approx(2.0)
        assert growth_rate(build_truncation(SPINE, 10)) == pytest.approx(2.0)
        path = TreeSpec.explicit(list(range(10)))
        assert growth_rate(build_truncation(path, 10)) == pytest.approx(1.0)
