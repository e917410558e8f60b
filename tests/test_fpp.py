"""Passage times, fastest finite-depth transit, and level-set profiles.

Expected values come from closed forms, the exact tail convolution, and the
exact percolation survival recursion; Monte Carlo assertions sit at 3-sigma
or at frequencies frozen from calibration runs noted inline.
"""

import math

import numpy as np
import pytest

from treelab.errors import ValidationError
from treelab.ratecalc import Distribution, exact_tail_below, rate_m
from treelab.trees import TreeSpec, build_truncation, extendable_lineage
from treelab.branching import branching_number
from treelab.fpp import (first_passage_min, fpp_report, level_profile,
                         sample_passage_times)
from treelab.percolation import survival_probability
from treelab import branching, fpp, rng, trees

HOM2 = TreeSpec.homogeneous(2)
COIN = Distribution.uniform([0.0, 1.0])


class TestSampling:
    def test_unit_times_give_depth(self):
        t = build_truncation(HOM2, 6)
        s = sample_passage_times(t, Distribution.point(1.0), 1)
        assert np.array_equal(s.s, t.depth.astype(float))

    def test_deterministic(self):
        t = build_truncation(HOM2, 8)
        a = sample_passage_times(t, COIN, 5)
        b = sample_passage_times(t, COIN, 5)
        assert np.array_equal(a.s, b.s)

    def test_sampler_mean_within_clt_band(self):
        t = build_truncation(HOM2, 17)
        law = Distribution.uniform([1.0, 2.0])
        x = sample_passage_times(t, law, 3).x[1:100_001]
        band = 3 * 0.5 / math.sqrt(len(x))
        assert abs(x.mean() - 1.5) < band


class TestFirstPassageMin:
    def test_constant_law(self):
        t = build_truncation(HOM2, 7)
        for c in (0.5, 2.0):
            s = sample_passage_times(t, Distribution.point(c), 0)
            assert first_passage_min(s, 7) == pytest.approx(c, rel=1e-12)

    def test_long_path_law_of_large_numbers(self):
        spec = TreeSpec.explicit(list(range(10_000)))
        t = build_truncation(spec, 10_000)
        for seed in (0, 1, 2):
            s = sample_passage_times(t, Distribution.uniform([1.0, 2.0]), seed)
            assert abs(first_passage_min(s, 10_000) - 1.5) <= 0.05

    def test_dead_leaves_cannot_fake_a_ray(self):
        # on the spine tree only the single continuing path may define the
        # minimum, however fast the dead leaves at the same level were
        spec = TreeSpec.spine_with_leaves()
        t = build_truncation(spec, 8)
        s = sample_passage_times(t, Distribution.uniform([1.0, 2.0]), 2)
        alive = extendable_lineage(t)
        sl = t.level_slice(8)
        spine_value = s.s[sl][alive[sl]]
        assert len(spine_value) == 1
        assert first_passage_min(s, 8) == pytest.approx(float(spine_value[0]) / 8)
        assert first_passage_min(s, 8) >= s.s[sl].min() / 8

    def test_above_essential_infimum(self):
        t = build_truncation(HOM2, 9)
        law = Distribution.uniform([0.5, 3.0])
        for seed in range(5):
            s = sample_passage_times(t, law, seed)
            assert first_passage_min(s, 9) >= 0.5 - 1e-12

    def test_more_branches_cannot_slow_the_minimum(self):
        # couple a binary subtree inside the ternary tree: the restricted
        # minimum is over fewer vertices, so it can only be larger
        t3 = build_truncation(TreeSpec.homogeneous(3), 7)
        s = sample_passage_times(t3, COIN, 4)
        keep = np.zeros(t3.n_vertices, dtype=bool)
        keep[0] = True
        for k in range(1, 8):
            sl = t3.level_slice(k)
            ids = np.arange(sl.start, sl.stop)
            child_rank = ids - sl.start - 3 * (t3.parent[sl] - t3.level_slice(k - 1).start)
            keep[sl] = keep[t3.parent[sl]] & (child_rank < 2)
        sl = t3.level_slice(7)
        binary_min = s.s[sl][keep[sl]].min() / 7
        assert first_passage_min(s, 7) <= binary_min + 1e-12

    def test_level_validation(self):
        t = build_truncation(HOM2, 4)
        s = sample_passage_times(t, COIN, 0)
        with pytest.raises(ValidationError):
            first_passage_min(s, 9)


class TestLevelProfile:
    def test_unit_times_full_level(self):
        t = build_truncation(HOM2, 10)
        s = sample_passage_times(t, Distribution.point(1.0), 0)
        prof = level_profile(s, 10, [1.0])
        assert prof.counts[0] == 2**10
        assert prof.exponents[0] == pytest.approx(math.log(2.0))

    def test_below_essential_infimum_is_empty(self):
        t = build_truncation(HOM2, 8)
        s = sample_passage_times(t, Distribution.uniform([1.0, 2.0]), 1)
        prof = level_profile(s, 8, [0.5])
        assert prof.counts[0] == 0 and prof.exponents[0] == -math.inf

    def test_counts_nondecreasing_in_y(self):
        t = build_truncation(HOM2, 10)
        s = sample_passage_times(t, COIN, 7)
        prof = level_profile(s, 10, np.linspace(0.0, 1.0, 11))
        assert np.all(np.diff(prof.counts) >= 0)

    def test_minimum_matches_first_positive_count(self):
        t = build_truncation(HOM2, 10)
        s = sample_passage_times(t, COIN, 3)
        b = first_passage_min(s, 10)
        grid = np.arange(0.0, 1.01, 0.05)
        prof = level_profile(s, 10, grid)
        first_hit = grid[np.argmax(prof.counts >= 1)]
        assert b <= first_hit + 1e-12
        assert prof.counts[grid < b - 1e-12].max(initial=0) == 0

    def test_expected_count_matches_exact_tail(self):
        # E[N_n(y)] = M_n * P[S_n <= y n], checked at 3 standard errors
        t = build_truncation(HOM2, 12)
        n, y, seeds = 12, 0.25, 120
        counts = np.array([
            level_profile(sample_passage_times(t, COIN, rng.derive(55, i)),
                          n, [y]).counts[0]
            for i in range(seeds)])
        expect = 2.0**n * exact_tail_below(COIN, n, y)
        stderr = counts.std(ddof=1) / math.sqrt(seeds)
        assert abs(counts.mean() - expect) <= 3 * stderr

    def test_first_moment_bound_when_subcritical(self):
        # a rare-fast-edge law: with m(y) * b < 1 the chance of any fast
        # vertex at level n is at most (b m(y))**n
        law = Distribution.from_pairs([(1.0, 0.3), (2.0, 0.7)])
        t = build_truncation(HOM2, 20)
        n, seeds = 20, 50
        for y in (1.0, 1.05):
            m_y = rate_m(law, y)
            assert 2 * m_y < 1
            bound = (2 * m_y) ** n
            hits = sum(
                level_profile(sample_passage_times(t, law, rng.derive(77, i)),
                              n, [y]).counts[0] >= 1
                for i in range(seeds))
            freq = hits / seeds
            assert freq <= bound + 3 * math.sqrt(max(bound, 1 / seeds) / seeds)


class TestReport:
    def test_constant_law_exact(self):
        rep = fpp_report(HOM2, Distribution.point(1.0), 8, 3, [1.0], seed=1)
        assert rep.predicted_rate == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(rep.b_values, 1.0)

    def test_zero_one_law_rate_and_minimum(self):
        # predicted rate m1(1/2) = 0; the all-zero percolation is exactly
        # critical (q b = 1), so B_n approaches 0 slowly from above: at n = 14
        # the minimum is a handful of steps over 14 (calibrated)
        rep = fpp_report(HOM2, COIN, 14, 20, [0.25], seed=3)
        assert rep.predicted_rate == pytest.approx(0.0, abs=1e-8)
        assert np.all(rep.b_values <= 0.25)
        assert np.mean(rep.b_values <= 0.15) >= 0.8

    def test_predicted_exponent_columns(self):
        rep = fpp_report(HOM2, COIN, 10, 2, [0.25, 1.0], seed=0)
        assert rep.profiles[0].predicted_exponents[1] == pytest.approx(
            math.log(2.0))
        assert rep.profiles[0].predicted_exponents[0] == pytest.approx(
            math.log(2 * rate_m(COIN, 0.25)))
        doc = rep.to_json()
        assert doc["schema"] == 1 and len(doc["rows"]) == 4

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = trees.build_truncation

        def spy(spec, depth, **kwargs):
            calls.append(depth)
            return real(spec, depth, **kwargs)

        for module in (fpp, branching):
            monkeypatch.setattr(module, "build_truncation", spy)
        return calls

    @pytest.mark.parametrize("depth,expected", [(12, [12]), (3, [3, 4])])
    def test_estimated_branching_builds_once(self, builds, depth, expected):
        # a critical family tree has no known branching number; from depth 4
        # to 24 the estimate reads the truncation the profiles use
        critical = Distribution.from_pairs([(0, 0.25), (1, 0.5), (2, 0.25)])
        spec = TreeSpec.galton_watson(critical, seed=5, condition_nonextinct=True)
        rep = fpp_report(spec, COIN, depth, 2, [0.5], seed=4)
        assert builds == expected
        assert rep.branching == branching_number(spec, max(depth, 4), 0.05).midpoint

    def test_spine_rate_prediction(self):
        # branching number 1: the fastest ray travels at the plain mean
        law = Distribution.uniform([1.0, 2.0])
        rep = fpp_report(TreeSpec.spine_with_leaves(), law, 12, 5, [2.0], seed=2)
        assert rep.branching == pytest.approx(1.0)
        assert rep.predicted_rate == pytest.approx(law.mean, abs=1e-6)

    def test_all_ones_ray_frequency_tracks_survival(self):
        # a fast edge with probability 3/4 percolates supercritically; the
        # chance that B_n stays at exactly 1 equals the exact survival value
        law = Distribution.from_pairs([(1.0, 0.75), (2.0, 0.25)])
        t = build_truncation(HOM2, 12)
        seeds = 80
        hits = sum(
            first_passage_min(sample_passage_times(t, law, rng.derive(31, i)),
                              12) == 1.0
            for i in range(seeds))
        exact = survival_probability(HOM2, 0.75, 12)
        stderr = math.sqrt(exact * (1 - exact) / seeds)
        assert abs(hits / seeds - exact) <= 3 * stderr
