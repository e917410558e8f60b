"""Environments, conductance, and flows against hand-reduced networks and the
exhaustive cutset oracle."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treelab.errors import ResourceCapError, UnsupportedCaseError, ValidationError
from treelab.ratecalc import Distribution
from treelab.trees import HomogeneousLevels, Tree, TreeSpec, build_truncation, truncate
from treelab.networks import (Environment, capacity_flow, effective_conductance,
                              homogeneous_conductance,
                              homogeneous_constant_conductance, max_flow,
                              sample_environment, weighted_cut_inf)
from treelab.branching import cutset_min
from treelab import networks, rng, trees
from treelab.fpp import sample_passage_times

import oracles
from conftest import (assert_bits_equal, assorted_trees, random_a_law,
                      random_explicit_spec, random_x_law, table_depth)

HOM2 = TreeSpec.homogeneous(2)
UNIT = Distribution.point(1.0)
PATH5 = TreeSpec.explicit([0, 1, 2, 3, 4])


class TestEnvironment:
    def test_constant_products(self):
        t = build_truncation(TreeSpec.explicit([0, 1, 2]), 3)
        env = sample_environment(t, Distribution.point(2.0), 0)
        assert math.exp(env.log_c[-1]) == pytest.approx(8.0, rel=1e-12)

    def test_deterministic(self):
        t = build_truncation(HOM2, 8)
        law = Distribution.uniform([0.5, 2.0])
        a = sample_environment(t, law, 7)
        b = sample_environment(t, law, 7)
        assert np.array_equal(a.log_a, b.log_a)
        assert np.array_equal(a.log_c, b.log_c)

    def test_prefix_consistent_across_depths(self):
        law = Distribution.uniform([0.5, 2.0])
        deep = build_truncation(HOM2, 10)
        shallow = truncate(deep, 6)
        e_deep = sample_environment(deep, law, 3)
        e_shallow = sample_environment(shallow, law, 3)
        n = shallow.n_vertices
        assert np.array_equal(e_deep.log_a[:n], e_shallow.log_a)

    def test_sampler_mean_within_clt_band(self):
        # 10**5 edges of a log-symmetric law: mean log A near 0
        t = build_truncation(HOM2, 17)
        env = sample_environment(t, Distribution.uniform([0.5, 2.0]), 12)
        logs = env.log_a[1:100_001]
        band = 3 * math.log(2) / math.sqrt(len(logs))
        assert abs(logs.mean()) < band

    def test_rejects_zero_or_infinite_ratios(self):
        t = build_truncation(HOM2, 3)
        with pytest.raises(UnsupportedCaseError):
            sample_environment(t, Distribution.uniform([0.0, 2.0]), 0)
        with pytest.raises(UnsupportedCaseError):
            sample_environment(t, Distribution.uniform([1.0, math.inf]), 0)


SPECS_AND_LAWS = [
    (HOM2, Distribution.uniform([0.5, 0.75])),
    (TreeSpec.homogeneous(3), Distribution.uniform([1e-200, 1.0, 1e200])),
    (TreeSpec.galton_watson(Distribution.uniform([0.0, 1.0, 2.0, 3.0]), 4,
                            condition_nonextinct=True),
     Distribution.uniform([0.1, 0.5, 3.0])),
]


class TestLazyEnvironment:
    """Arrays are filled on first read, bit-identical to drawing them eagerly."""

    @pytest.mark.parametrize("spec,law", SPECS_AND_LAWS)
    def test_arrays_match_eager_draws(self, spec, law):
        t = build_truncation(spec, 7)
        ids = np.arange(1, t.n_vertices, dtype=np.uint64)
        for seed in (0, 9):
            env = sample_environment(t, law, seed)
            log_a = np.zeros(t.n_vertices)
            log_a[1:] = np.log(oracles.sample_by_searchsorted(
                law, rng.derive(seed, networks._TAG_EDGE_VALUES), ids))
            assert env.log_c.tobytes() == oracles.root_path_sums(t.parent, log_a).tobytes()
            assert env.log_a.tobytes() == log_a.tobytes()

    def test_nothing_drawn_before_read(self):
        t = build_truncation(HOM2, 6)
        env = sample_environment(t, Distribution.uniform([0.5, 0.75]), 1)
        effective_conductance(t, env)
        effective_conductance(t, env, ground_depth=3)
        assert env._log_a is None and env._log_c is None

    def test_concurrent_first_reads_agree(self):
        # threads racing on the first read may each fill an array; every
        # reader must still see complete arrays with the eager values
        t = build_truncation(HOM2, 12)
        law = Distribution.uniform([0.5, 0.75])
        ref = sample_environment(t, law, 3).log_c.copy()
        env = sample_environment(t, law, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(lambda: (env.log_c, env.level_log_a(12)))
                           for _ in range(8)]
                outs = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for log_c, deepest in outs:
            assert log_c.tobytes() == ref.tobytes()
            assert deepest.tobytes() == env.log_a[t.level_slice(12)].tobytes()

    def test_constructor_arrays_win(self):
        t = build_truncation(PATH5, 5)
        log_a = np.log([1.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        env = Environment(tree=t, law=UNIT, seed=0, log_a=log_a)
        assert env.log_a is log_a
        assert np.exp(env.log_c[-1]) == pytest.approx(32.0, rel=1e-12)
        assert effective_conductance(t, env) == pytest.approx(
            1 / sum(2.0**-k for k in range(1, 6)), rel=1e-12)

    def test_sums_read_first_are_the_sweep_of_the_values(self, seeded_rng,
                                                           monkeypatch):
        # sums filled from their own draw, swept in place, have the bits of
        # the sweep of the values read afterwards, for both sample types
        monkeypatch.setattr(trees, "_SWEEP_CHUNK", 3)  # chunks split levels
        for i, tree in enumerate(assorted_trees(seeded_rng)):
            for sample, sums, vals in (
                    (sample_environment(tree, random_a_law(seeded_rng), i),
                     "log_c", "log_a"),
                    (sample_passage_times(tree, random_x_law(seeded_rng), i),
                     "s", "x")):
                first = getattr(sample, sums)
                assert sample._log_a is None
                values = getattr(sample, vals)
                assert values is not first
                assert_bits_equal(first, tree.sweep_down(values))

    @pytest.mark.parametrize("spec,law", SPECS_AND_LAWS)
    def test_conductance_same_bits_once_read(self, spec, law):
        t = build_truncation(spec, 8)
        for seed in range(3):
            fresh, read = sample_environment(t, law, seed), sample_environment(t, law, seed)
            read.log_c
            for ground in (None, 1, 5, 8):
                assert _bits(effective_conductance(t, fresh, ground)) == \
                    _bits(effective_conductance(t, read, ground))


class TestEffectiveConductance:
    def test_series_path(self):
        t = build_truncation(PATH5, 5)
        env = sample_environment(t, UNIT, 0)
        assert effective_conductance(t, env) == pytest.approx(1 / 5, rel=1e-12)

    def test_binary_unit_by_hand(self):
        t = build_truncation(HOM2, 2)
        env = sample_environment(t, UNIT, 0)
        assert effective_conductance(t, env) == pytest.approx(4 / 3, rel=1e-12)

    def test_binary_half_by_hand(self):
        t = build_truncation(HOM2, 2)
        env = sample_environment(t, Distribution.point(0.5), 0)
        assert effective_conductance(t, env) == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_depth(self):
        law = Distribution.uniform([0.5, 0.75])
        deep = build_truncation(HOM2, 12)
        vals = []
        for d in range(2, 13):
            sub = truncate(deep, d)
            env = sample_environment(sub, law, 5)
            vals.append(effective_conductance(sub, env))
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_scalar_recursion_matches_dp(self):
        for a, d in ((0.75, 9), (0.4, 9), (1.0, 5)):
            t = build_truncation(HOM2, d)
            env = sample_environment(t, Distribution.point(a), 0)
            assert homogeneous_constant_conductance(2, a, d) == pytest.approx(
                effective_conductance(t, env), rel=1e-12)

    def test_streaming_matches_dp(self):
        law = Distribution.uniform([0.5, 0.75])
        t = build_truncation(HOM2, 11)
        for seed in (0, 1, 2):
            env = sample_environment(t, law, seed)
            assert homogeneous_conductance(HOM2, law, 11, seed) == pytest.approx(
                effective_conductance(t, env), rel=1e-12)

    def test_streaming_past_int64_ids_is_a_resource_cap(self):
        # the closed-form count once overflowed the int64 level offsets
        law = Distribution.uniform([0.5, 0.75])
        for depth in (60, 62, 70, 20000):
            with pytest.raises(ResourceCapError, match="fewer than 2\\*\\*60"):
                homogeneous_conductance(HOM2, law, depth, 0)

    def test_ground_depth_series(self):
        t = build_truncation(PATH5, 5)
        env = sample_environment(t, UNIT, 0)
        for d in (1, 2, 3):
            assert effective_conductance(t, env, ground_depth=d) == pytest.approx(
                1 / d, rel=1e-12)

    def test_depth_zero_rejected(self):
        t = build_truncation(HOM2, 0)
        with pytest.raises(ValidationError):
            effective_conductance(t, sample_environment(t, UNIT, 0))

    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_homogeneous_default_ground_is_the_whole_frontier(self, b):
        # every b-ary frontier vertex is extendable, so the default ground
        # is the depth-n level, with or without the extendable flags
        law = Distribution.uniform([0.5, 0.75, 1.5])
        n = 5
        levels = HomogeneousLevels(b, n)
        env = sample_environment(levels, law, 3)
        want = effective_conductance(levels, env, ground_depth=n).hex()
        assert effective_conductance(levels, env).hex() == want
        assert "extendable" not in vars(levels)
        levels.extendable  # a plain tree's default ground reads the flags
        plain = Tree(parent=levels.parent, extendable=levels.extendable,
                     level_offsets=levels.level_offsets)
        assert effective_conductance(plain, sample_environment(plain, law, 3)).hex() == want


def _bits(x: float) -> str:
    return float(x).hex()


class TestRatioRecursion:
    """Every conductance entry point runs h = A * (s / (1 + s)), so values
    stay finite and agree wherever the ratios h are in double range."""

    @pytest.mark.parametrize("b,law,depth", [
        (2, Distribution.uniform([0.5, 0.75]), 6),
        (3, Distribution.uniform([1e-3, 1.0, 1e3]), 6),
        (3, Distribution.uniform([1e-200, 1e200]), 5),  # some runs on log h
        (2, Distribution.uniform([1e-40, 1e-39]), 10),  # below double range
        (1, Distribution.uniform([0.5, 2.0]), 12),  # the path
    ])
    def test_streaming_same_bits(self, b, law, depth):
        spec = TreeSpec.homogeneous(b)
        t = build_truncation(spec, depth)
        for seed in range(5):
            env = sample_environment(t, law, seed)
            assert _bits(homogeneous_conductance(spec, law, depth, seed)) == \
                _bits(effective_conductance(t, env))

    def test_law_where_exp_log_is_not_identity(self):
        # the double path runs on exp(log A), which is not A for 0.1 and 0.35:
        # drawn from the image table (unread environment) or computed from a
        # stored log A (read environment), the bits are the same
        law = Distribution.uniform([0.1, 0.35, 1.9])
        support = np.array(law.support)
        assert np.count_nonzero(np.exp(np.log(support)) != support) == 2
        t = build_truncation(HOM2, 9)
        for seed in range(4):
            env = sample_environment(t, law, seed)
            g = effective_conductance(t, env)
            assert _bits(g) == _bits(homogeneous_conductance(HOM2, law, 9, seed))
            assert _bits(effective_conductance(t, env)) == _bits(g)  # now read
            exact = oracles.conductance_exact(t, np.exp(env.log_a), t.extendable)
            assert g == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    def test_in_place_step_is_the_formula(self):
        gen = np.random.default_rng(4)
        s = np.concatenate([10.0 ** gen.uniform(-320, 308, 5000),
                            [0.0, 5e-324, 1.0, np.inf]])
        a = 10.0 ** gen.uniform(-300, 300, len(s))
        with np.errstate(over="ignore", invalid="ignore"):
            want = a * (s / (1.0 + s))
            got = networks._ratio_step(a.copy(), s.copy())
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert _bits(networks._ratio_step(0.7, 3.0)) == _bits(0.7 * (3.0 / (1.0 + 3.0)))

    def test_large_constant_ratio_finite(self):
        # A * s overflowed before the divide: both fast paths gave nan here
        a = 1e200
        t = build_truncation(HOM2, 3)
        g = effective_conductance(t, sample_environment(t, Distribution.point(a), 0))
        assert g == pytest.approx(2e200, rel=1e-12)
        assert _bits(homogeneous_conductance(HOM2, Distribution.point(a), 3, 0)) == _bits(g)
        assert homogeneous_constant_conductance(2, a, 3) == pytest.approx(g, rel=1e-12)

    def test_wide_two_point_law_finite(self):
        law = Distribution.uniform([1e-200, 1e200])
        spec = TreeSpec.homogeneous(3)
        t = build_truncation(spec, 3)
        for seed in range(5):
            env = sample_environment(t, law, seed)
            a = np.exp(env.log_a)
            for ground in (None, 1, 2, 3):
                g = effective_conductance(t, env, ground)
                mask = (t.extendable if ground is None
                        else oracles.depths_by_climbing(t) == ground)
                assert math.isfinite(g) and g > 0.0
                exact = float(oracles.conductance_exact(t, a, mask))
                assert g == pytest.approx(exact, rel=1e-13, abs=0.0)
            assert _bits(homogeneous_conductance(spec, law, 3, seed)) == \
                _bits(effective_conductance(t, env))

    def test_small_values_not_clamped(self):
        # the old DP floored log C at -700 and returned 4.04e-301 here
        a = 10.0**-25.5
        t = build_truncation(HOM2, 12)
        g = effective_conductance(t, sample_environment(t, Distribution.point(a), 0))
        exact = homogeneous_constant_conductance(2, a, 12)
        assert exact == pytest.approx(4.096e-303, rel=1e-12, abs=0.0)
        assert g == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_underflowing_branch_still_counted(self):
        # h underflows two levels up from the leaf (1e-200 * 1e-200) but the
        # edges above it are 1e200 times larger: the conductance is about 1
        t = build_truncation(TreeSpec.explicit([0, 1, 2, 3]), 4)
        log_a = np.log([1.0, 1e200, 1e200, 1e-200, 1e-200])
        env = Environment(tree=t, law=UNIT, seed=0, log_a=log_a)
        exact = float(oracles.conductance_exact(t, np.exp(log_a), t.extendable))
        assert exact == pytest.approx(1.0, rel=1e-12)
        assert effective_conductance(t, env) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_above_range_is_inf(self):
        law = Distribution.point(1.5e308)
        t = build_truncation(HOM2, 2)
        assert effective_conductance(t, sample_environment(t, law, 0)) == math.inf
        assert homogeneous_conductance(HOM2, law, 2, 0) == math.inf
        assert homogeneous_constant_conductance(2, 1.5e308, 2) == math.inf

    def test_below_range_is_zero(self):
        # the true value is below double range; the old DP gave 1.44e-302
        law = Distribution.uniform([1e-40, 1e-39])
        t = build_truncation(HOM2, 10)
        for seed in range(3):
            assert effective_conductance(t, sample_environment(t, law, seed)) == 0.0
            assert homogeneous_conductance(HOM2, law, 10, seed) == 0.0


# |log A| <= 110 over at most 6 levels keeps every h in double range, so the
# recursion runs in doubles; |log A| <= 700 over 8 levels sends it to log h
_IN_RANGE = (6, st.one_of(st.floats(-110.0, 110.0),
                          st.sampled_from([-110.0, -50.0, 0.0, 50.0, 110.0])))
_WIDE = (8, st.one_of(st.floats(-700.0, 700.0),
                      st.sampled_from([-700.0, -460.0, 0.0, 460.0, 700.0])))


@st.composite
def _grounded_env(draw, depth_cap, log_a_values):
    """A random tree with dead ends and extendable marks, a truncation depth,
    an environment with the given log A values, and a ground."""
    n = draw(st.integers(2, 24))
    parents, depth = [], [0]
    for _ in range(n - 1):
        shallow = [v for v, d in enumerate(depth) if d < depth_cap]
        p = shallow[draw(st.integers(0, len(shallow) - 1))]
        parents.append(p)
        depth.append(depth[p] + 1)
    top = table_depth(parents)
    bottom = [v for v, d in enumerate(depth) if d == top]
    marks = draw(st.lists(st.sampled_from(bottom), unique=True))
    tree = build_truncation(TreeSpec.explicit(parents, extendable=marks),
                            draw(st.integers(1, top)))
    log_a = np.array([0.0] + draw(st.lists(log_a_values, min_size=tree.n_vertices - 1,
                                           max_size=tree.n_vertices - 1)))
    env = Environment(tree=tree, law=UNIT, seed=0, log_a=log_a)
    ground = draw(st.one_of(st.none(), st.integers(1, tree.truncation_depth)))
    return env, ground


def _against_exact_rationals(env, ground, rel):
    tree = env.tree
    mask = (tree.extendable if ground is None
            else oracles.depths_by_climbing(tree) == ground)
    exact = oracles.conductance_exact(tree, np.exp(env.log_a), mask)
    g = effective_conductance(tree, env, ground)
    if exact == 0:
        assert g == 0.0
    elif exact >= sys.float_info.min:
        assert abs(g - float(exact)) <= rel * float(exact)
    else:
        assert g < 2 * sys.float_info.min


@settings(max_examples=300, deadline=None)
@given(_grounded_env(*_IN_RANGE))
def test_conductance_matches_exact_rationals(case):
    _against_exact_rationals(*case, rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(_grounded_env(*_WIDE))
def test_conductance_matches_exact_rationals_past_double_range(case):
    # products of A leave double range; the recursion then runs on log h,
    # whose rounding is a few ulps of |log h| (up to about 5600 here)
    _against_exact_rationals(*case, rel=1e-11)


class TestMaxFlow:
    def test_unit_capacities(self):
        for d in (1, 4, 7):
            t = build_truncation(HOM2, d)
            assert max_flow(t, np.ones(t.n_vertices)) == pytest.approx(2.0)

    def test_halving_capacities(self):
        for d in (3, 6):
            t = build_truncation(HOM2, d)
            caps = 0.5 ** oracles.depths_by_climbing(t).astype(float)
            assert max_flow(t, caps) == pytest.approx(1.0, rel=1e-12)

    def test_spine_unit_capacities(self):
        t = build_truncation(TreeSpec.spine_with_leaves(), 6)
        assert max_flow(t, np.ones(t.n_vertices)) == pytest.approx(1.0)

    def test_flow_equals_exhaustive_min_cut(self, seeded_rng):
        for _ in range(50):
            spec = random_explicit_spec(seeded_rng, seeded_rng.randint(3, 12))
            t = _deepest(spec)
            caps = np.array([seeded_rng.uniform(0.0, 2.0)
                             for _ in range(t.n_vertices)])
            assert max_flow(t, caps) == pytest.approx(
                oracles.min_cutset_sum(t, caps), abs=1e-12)

    def test_cutset_min_is_flow_with_power_capacities(self, seeded_rng):
        for _ in range(20):
            spec = random_explicit_spec(seeded_rng, seeded_rng.randint(3, 12))
            t = _deepest(spec)
            lam = seeded_rng.uniform(0.7, 2.5)
            caps = lam ** -oracles.depths_by_climbing(t).astype(float)
            assert float(cutset_min(t, lam)) == pytest.approx(
                max_flow(t, caps), rel=1e-10)

    def test_zero_flow_implies_zero_conductance(self):
        # thin spine with strongly shrinking ratios: flow and current both die
        spec = TreeSpec.spine_with_leaves(leaf_rule=1)
        t = build_truncation(spec, 25)
        env = sample_environment(t, Distribution.point(0.25), 0)
        flow = capacity_flow(env)
        assert flow <= 1e-12
        assert effective_conductance(t, env) <= 1e-12
        # and a genuinely finite tree gives exactly zero for both
        dead = build_truncation(TreeSpec.explicit([0, 0, 1], extendable=[]), 2)
        env_dead = sample_environment(dead, UNIT, 0)
        assert capacity_flow(env_dead) == 0.0
        assert effective_conductance(dead, env_dead) == 0.0

    def test_capacity_validation(self):
        t = build_truncation(HOM2, 3)
        with pytest.raises(ValidationError):
            max_flow(t, -np.ones(t.n_vertices))
        with pytest.raises(ValidationError):
            max_flow(t, np.ones(3))
        caps = np.ones(t.n_vertices)
        caps[5] = math.nan  # NaN < 0 is False: a sign check alone lets it in
        with pytest.raises(ValidationError, match="NaN"):
            max_flow(t, caps)

    def test_depth_zero_rejected(self):
        # the root is the frontier: there is no cutset
        t = build_truncation(HOM2, 0)
        with pytest.raises(ValidationError):
            max_flow(t, np.ones(1))
        with pytest.raises(ValidationError):
            capacity_flow(sample_environment(t, UNIT, 0))


class TestWeightedCut:
    def test_w_one_is_capacity_flow(self):
        t = build_truncation(HOM2, 6)
        env = sample_environment(t, Distribution.uniform([0.5, 0.75]), 2)
        assert weighted_cut_inf(t, env, 1.0) == pytest.approx(capacity_flow(env))

    def test_unit_ratios_half_weight(self):
        for d in (3, 6, 9):
            t = build_truncation(HOM2, d)
            env = sample_environment(t, UNIT, 0)
            assert weighted_cut_inf(t, env, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_unit_ratios_third_weight(self):
        for d in (3, 6):
            t = build_truncation(HOM2, d)
            env = sample_environment(t, UNIT, 0)
            assert weighted_cut_inf(t, env, 1 / 3) == pytest.approx(
                (2 / 3) ** d, rel=1e-10)

    def test_w_validation(self):
        t = build_truncation(HOM2, 3)
        env = sample_environment(t, UNIT, 0)
        with pytest.raises(ValidationError):
            weighted_cut_inf(t, env, 0.0)
        with pytest.raises(ValidationError):
            weighted_cut_inf(t, env, 1.5)


def _assert_exact(value, exact, rel):
    """`value` within rel of the rational `exact`; below double range it may
    read a subnormal or 0.0 (0.0 when exact is 0), above it inf."""
    if exact < sys.float_info.min:
        assert value < 2 * sys.float_info.min
        assert value == 0.0 or exact > 0
    elif value == math.inf:
        assert exact * (1 + rel) >= sys.float_info.max
    else:
        assert abs(Fraction(value) - exact) <= rel * exact


class TestExactMinCut:
    """Every flow is one log-space min-cut; against the exact min-cut in
    rationals on the doubles A = exp(log A), with log C past +-700 and past
    double range.  The log C sums round to a few ulps of |log C|."""

    @settings(max_examples=300, deadline=None)
    @given(_grounded_env(*_WIDE), st.floats(1e-3, 1.0))
    def test_flows_match_exact_rationals(self, case, w):
        env, _ = case
        tree = env.tree
        a = np.exp(env.log_a)
        _assert_exact(capacity_flow(env), oracles.min_cut_exact(
            tree, oracles.conductances_exact(tree, a)), rel=1e-11)
        _assert_exact(weighted_cut_inf(tree, env, w), oracles.min_cut_exact(
            tree, oracles.conductances_exact(tree, a, w)), rel=1e-11)
        with np.errstate(over="ignore"):
            caps = np.exp(env.log_c)  # 0.0 and inf past double range
        exact = [Fraction(c) if c < math.inf else math.inf for c in caps]
        _assert_exact(max_flow(tree, caps), oracles.min_cut_exact(tree, exact),
                      rel=1e-11)

    def test_no_clamp_floor(self):
        # a clamp of log C at -700 would read 2**16 * exp(-700) = 6.46e-300
        t = build_truncation(HOM2, 16)
        env = sample_environment(t, Distribution.uniform([1e-20, 1e-19]), 1)
        exact = oracles.min_cut_exact(t, oracles.conductances_exact(t, np.exp(env.log_a)))
        flow = capacity_flow(env)
        assert flow == pytest.approx(1.28e-304, rel=1e-2)
        _assert_exact(flow, exact, rel=1e-11)
        # each level down multiplies a cut by at most 2e-19, so the deepest
        # level is the min-cut for every w <= 1: here 2**-16 times the flow,
        # a subnormal
        assert weighted_cut_inf(t, env, 0.5) == pytest.approx(
            float(exact / 2**16), rel=1e-11, abs=0.0)

    def test_infinite_and_zero_capacities(self):
        t = build_truncation(HOM2, 2)
        caps = np.full(t.n_vertices, math.inf)
        assert max_flow(t, caps) == math.inf
        caps[1] = 1.0  # vertex 1's subtree is cut at its edge
        assert max_flow(t, caps) == math.inf
        caps[2] = 2.0
        assert max_flow(t, caps) == pytest.approx(3.0, rel=1e-15)
        assert max_flow(t, np.zeros(t.n_vertices)) == 0.0


def _deepest(spec):
    depth = 0
    while True:
        try:
            deeper = build_truncation(spec, depth + 1)
        except ValidationError:
            return build_truncation(spec, depth)
        depth += 1
        tree = deeper


def test_level_sums_match_moment_expectation():
    # sum of C over level k has mean (b * E[A])**k; check at 3 standard errors
    law = Distribution.uniform([0.5, 0.75])
    t = build_truncation(HOM2, 8)
    seeds = 300
    k = 8
    sums = np.array([np.exp(sample_environment(t, law, rng.derive(1000, s))
                            .log_c[t.level_slice(k)]).sum()
                     for s in range(seeds)])
    expect = (2 * law.mean) ** k
    assert abs(sums.mean() - expect) < 3 * sums.std(ddof=1) / math.sqrt(seeds)
