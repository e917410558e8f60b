"""Rate-function calculus against closed forms and dense-grid oracles.

Every nontrivial expected value below was computed first with the brute-force
oracles in oracles.py (grid step 1e-4 on the optimization variable) or by
closed-form arithmetic, then frozen.
"""

import math

import numpy as np
import pytest

from treelab.errors import ResourceCapError, ValidationError
from treelab.ratecalc import (Distribution, _root, dual_p, exact_tail,
                              exact_tail_below, fractional_moment, gamma,
                              m_inverse, p_value, rate_m, summarize)

import oracles
from conftest import make_law, random_a_law, random_x_law

HALF_QUARTER = Distribution.uniform([0.25, 0.75])   # p = E[A] = 1/2
QUARTER_TWO = Distribution.uniform([0.25, 2.0])     # p = 3*2**(-2/3)/2
BERNOULLI = Distribution.uniform([0.0, 1.0])
P_QUARTER_TWO = 3.0 * 2.0 ** (-2.0 / 3.0) / 2.0     # stationarity at x = 1/3


# ---------------------------------------------------------------------------
# Distribution plumbing
# ---------------------------------------------------------------------------

class TestDistribution:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Distribution((1.0, 1.0), (0.5, 0.5))      # repeated support
        with pytest.raises(ValidationError):
            Distribution((1.0, 2.0), (0.6, 0.5))      # weights do not sum to 1
        with pytest.raises(ValidationError):
            Distribution((1.0, 2.0), (1.1, -0.1))     # negative weight
        with pytest.raises(ValidationError):
            Distribution((), ())

    def test_type_flags(self):
        assert Distribution.uniform([0.0, math.inf]).is_a_type
        assert not Distribution.uniform([-1.0, 1.0]).is_a_type
        assert not Distribution.uniform([0.0, math.inf]).is_x_type

    def test_json_round_trip_with_inf(self):
        law = make_law((0.0, 0.25), (2.0, 0.5), (math.inf, 0.25))
        doc = law.to_json()
        assert doc["schema"] == 1
        assert "inf" in doc["support"]
        back = Distribution.from_json(doc)
        assert back == law

    def test_sampling_matches_weights(self):
        law = make_law((1.0, 0.2), (2.0, 0.3), (5.0, 0.5))
        vals = law.sample_values(31337, range(200_000))
        for v, w in zip(law.support, law.weights):
            freq = (vals == v).mean()
            assert abs(freq - w) < 3 * math.sqrt(w * (1 - w) / len(vals))

    def test_sampling_deterministic(self):
        law = Distribution.uniform([1.0, 2.0])
        ids = range(1000)
        assert np.array_equal(law.sample_values(5, ids), law.sample_values(5, ids))


# ---------------------------------------------------------------------------
# Fractional moments and the transition constant
# ---------------------------------------------------------------------------

class TestFractionalMoment:
    def test_constant_one(self):
        one = Distribution.point(1.0)
        for x in (0.0, 0.3, 1.0):
            assert fractional_moment(one, x) == 1.0

    def test_expectation_at_x_one(self):
        assert fractional_moment(HALF_QUARTER, 1.0) == 0.5

    def test_zero_atom_convention(self):
        law = make_law((0.0, 0.3), (2.0, 0.7))
        assert fractional_moment(law, 0.0) == 0.7  # 0**0 counts as 0

    def test_inf_atom_convention(self):
        law = make_law((1.0, 0.5), (math.inf, 0.5))
        assert fractional_moment(law, 0.0) == 1.0  # inf**0 counts as 1
        assert fractional_moment(law, 0.5) == math.inf

    def test_rejects_signed_law(self):
        with pytest.raises(ValidationError):
            fractional_moment(Distribution.uniform([-1.0, 1.0]), 0.5)


class TestPValue:
    def test_a_below_one_gives_mean(self):
        p, x_star = p_value(HALF_QUARTER)
        assert p == pytest.approx(0.5, abs=1e-10)
        assert x_star == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_law_minimizes_at_zero(self):
        p, x_star = p_value(Distribution.uniform([0.5, 2.0]))
        assert p == pytest.approx(1.0, abs=1e-10)
        assert x_star == pytest.approx(0.0, abs=1e-9)

    def test_interior_minimum(self):
        p, x_star = p_value(QUARTER_TWO)
        assert p == pytest.approx(P_QUARTER_TWO, abs=1e-10)
        assert x_star == pytest.approx(1.0 / 3.0, abs=1e-6)
        grid_p, grid_x = oracles.p_grid(QUARTER_TWO.support, QUARTER_TWO.weights)
        assert p <= grid_p + 1e-12
        assert abs(p - grid_p) < 1e-7

    def test_mass_at_infinity(self):
        law = make_law((0.0, 0.25), (2.0, 0.25), (math.inf, 0.5))
        p, x_star = p_value(law)
        assert p == 0.75  # P[A > 0]; every positive power is infinite
        assert x_star == 0.0

    def test_requires_positive_mass(self):
        with pytest.raises(ValidationError):
            p_value(Distribution.point(0.0))


class TestDualP:
    def test_point_mass(self):
        d, y_star = dual_p(Distribution.point(1.0))
        assert d == pytest.approx(1.0, abs=1e-9)

    def test_matches_p_on_examples(self):
        for law in (HALF_QUARTER, QUARTER_TWO, Distribution.uniform([0.5, 2.0])):
            p, _ = p_value(law)
            d, y_star = dual_p(law)
            assert d == pytest.approx(p, abs=1e-6)
            assert 0.0 < y_star <= 1.0

    def test_duality_on_random_laws(self, seeded_rng):
        for _ in range(30):
            law = random_a_law(seeded_rng)
            p, _ = p_value(law)
            d, _ = dual_p(law)
            assert abs(p - d) <= 1e-6

    def test_mass_at_infinity(self):
        law = make_law((2.0, 0.5), (math.inf, 0.5))
        d, y_star = dual_p(law)
        assert d == 1.0 and y_star == 1.0


# ---------------------------------------------------------------------------
# Lower-tail rate and inverse
# ---------------------------------------------------------------------------

class TestRateM:
    def test_constant_law(self):
        one = Distribution.point(1.0)
        assert rate_m(one, 2.0) == 1.0
        assert rate_m(one, 0.5) == 0.0
        assert rate_m(one, 1.0) == 1.0  # at the mean

    def test_essential_infimum_mass(self):
        # the infimum is attained in the limit and equals the atom mass
        assert rate_m(BERNOULLI, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_at_mean(self):
        assert rate_m(BERNOULLI, 0.5) == 1.0

    def test_interior_against_grid(self):
        closed = math.exp(-(math.log(2) + 0.25 * math.log(0.25)
                            + 0.75 * math.log(0.75)))
        got = rate_m(BERNOULLI, 0.25)
        assert got == pytest.approx(closed, abs=1e-10)
        assert got == pytest.approx(
            oracles.rate_m_grid(BERNOULLI.support, BERNOULLI.weights, 0.25),
            abs=1e-7)

    def test_monotone_in_y(self, seeded_rng):
        for _ in range(10):
            law = random_x_law(seeded_rng)
            ys = np.linspace(law.ess_inf - 0.5, law.mean + 0.5, 41)
            vals = [rate_m(law, float(y)) for y in ys]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_log_midpoint_concave(self, seeded_rng):
        for _ in range(10):
            law = random_x_law(seeded_rng)
            ys = np.linspace(law.ess_inf, law.mean, 21)
            logs = [math.log(rate_m(law, float(y)))
                    for y in ys if rate_m(law, float(y)) > 0.0]
            for i in range(len(logs) - 2):
                assert logs[i + 1] >= 0.5 * (logs[i] + logs[i + 2]) - 1e-9

    def test_mirror_of_upper_tail(self, seeded_rng):
        # lower tail of X is the upper tail of -X
        for _ in range(10):
            law = random_x_law(seeded_rng)
            y = seeded_rng.uniform(law.ess_inf - 0.5, law.mean + 0.5)
            lhs = rate_m(law, y)
            rhs = math.exp(gamma(law.reflected(), -y))
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestMInverse:
    def test_point_mass_jump(self):
        assert m_inverse(Distribution.point(3.0), 1.0) == pytest.approx(3.0, abs=1e-8)

    def test_bernoulli_examples(self):
        assert m_inverse(BERNOULLI, 0.5) == pytest.approx(0.0, abs=1e-8)
        assert m_inverse(Distribution.uniform([1.0, 2.0]), 0.5) == pytest.approx(
            1.0, abs=1e-8)

    def test_against_grid_inversion(self):
        law = make_law((1.0, 0.25), (2.0, 0.75))
        got = m_inverse(law, 0.5)
        grid = oracles.m_inverse_grid(lambda y: rate_m(law, y), 0.0, law.mean, 0.5)
        assert got == pytest.approx(grid, abs=2e-4)
        assert got == pytest.approx(1.1892896, abs=1e-6)  # frozen from the grid

    def test_round_trip(self, seeded_rng):
        for _ in range(10):
            law = random_x_law(seeded_rng)
            # probe strictly inside the increasing region
            y = 0.8 * law.ess_inf + 0.2 * law.mean
            z = rate_m(law, y)
            if not (law.prob(law.ess_inf) < z < 1.0):
                continue
            assert abs(m_inverse(law, z) - y) <= 1e-6

    def test_inf_form_agrees_inside_unit_interval(self):
        # sup{y : m(y) < z} equals inf{y : m(y) > z} for z in (0, 1); at z = 1
        # the inf form is vacuous because m never exceeds 1
        law = make_law((0.0, 0.4), (1.0, 0.6))
        for z in (0.5, 0.7, 0.9):
            sup_form = m_inverse(law, z)
            ys = np.arange(law.ess_inf - 0.5, law.mean + 1e-9, 1e-3)
            above = [y for y in ys if rate_m(law, float(y)) > z]
            inf_form = min(above)
            assert abs(sup_form - inf_form) <= 2e-3

    def test_z_range_validation(self):
        with pytest.raises(ValidationError):
            m_inverse(BERNOULLI, 0.0)
        with pytest.raises(ValidationError):
            m_inverse(BERNOULLI, 1.5)


# ---------------------------------------------------------------------------
# Upper-tail exponent and exact tails
# ---------------------------------------------------------------------------

class TestGamma:
    def test_zero_at_and_below_mean(self):
        pm = Distribution.uniform([-1.0, 1.0])
        assert gamma(pm, 0.0) == 0.0
        assert gamma(pm, -0.4) == 0.0

    def test_endpoint_log_mass(self):
        assert gamma(Distribution.uniform([-1.0, 1.0]), 1.0) == pytest.approx(
            -math.log(2), abs=1e-12)

    def test_beyond_support(self):
        assert gamma(Distribution.uniform([-1.0, 1.0]), 1.5) == -math.inf

    def test_interior_against_closed_form_and_grid(self):
        closed = -(0.75 * math.log(1.5) + 0.25 * math.log(0.5))
        got = gamma(BERNOULLI, 0.75)
        assert got == pytest.approx(closed, abs=1e-10)
        assert got == pytest.approx(
            oracles.gamma_grid(BERNOULLI.support, BERNOULLI.weights, 0.75),
            abs=1e-7)

    @pytest.mark.parametrize("a,rel", [(1e-9, 2e-2), (1e-3, 1e-6), (1.0, 1e-9)])
    def test_near_the_mean_keeps_its_digits(self, a, rel):
        # on U{-w, w}, gamma(a) = -(r**2/2 + r**4/12 + r**6/30 + ...) with
        # r = a/w; at these r the value is below the 1e-16 absolute
        # rounding of a max-shifted log-sum-exp
        w = 1e6
        r = a / w
        series = -(r**2 / 2 + r**4 / 12 + r**6 / 30)
        got = gamma(Distribution.uniform([-w, w]), a)
        assert got < 0.0
        assert abs(got - series) <= rel * abs(series)


class TestExactTail:
    def test_binomial_enumeration(self):
        assert exact_tail(BERNOULLI, 4, 0.75) == pytest.approx(5 / 16, abs=1e-15)
        assert exact_tail(BERNOULLI, 4, 0.75) == pytest.approx(
            oracles.binomial_upper_tail(4, 3, 0.5), abs=1e-15)

    def test_n_equals_one(self):
        law = make_law((0.0, 0.25), (1.0, 0.5), (3.0, 0.25))
        assert exact_tail(law, 1, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_constant_law(self):
        law = Distribution.point(2.0)
        assert exact_tail(law, 7, 1.5) == 1.0
        assert exact_tail(law, 7, 2.5) == 0.0

    def test_two_point_oracle(self):
        law = make_law((0.5, 0.3), (2.0, 0.7))
        for n, a in ((6, 1.4), (9, 0.9)):
            assert exact_tail(law, n, a) == pytest.approx(
                oracles.two_point_sum_tail(0.5, 2.0, 0.7, n, a), abs=1e-12)

    def test_lower_tail_mirror(self):
        assert exact_tail_below(BERNOULLI, 20, 0.25) == pytest.approx(
            sum(oracles.binomial_upper_tail(20, k, 0.5)
                - oracles.binomial_upper_tail(20, k + 1, 0.5)
                for k in range(0, 6)), abs=1e-12)

    def test_chernoff_upper_bound(self):
        g = gamma(BERNOULLI, 0.75)
        for n in (4, 8, 20, 50, 120, 200):
            tail = exact_tail(BERNOULLI, n, 0.75)
            assert math.log(tail) / n <= g + 1e-12

    def test_cap_on_dense_supports(self):
        # the size check runs before anything is allocated: 2145**2 masses
        law = Distribution.uniform([1.0, math.sqrt(2.0), math.pi])
        with pytest.raises(ResourceCapError, match="4601025 point masses"):
            exact_tail(law, 128, 1.0)


def test_summary_contains_requested_tables():
    s = summarize(HALF_QUARTER, y_grid=[0.3, 0.6], z_grid=[0.5], a_grid=[0.6])
    assert s.p == pytest.approx(0.5, abs=1e-10)
    assert len(s.m_table) == 2 and len(s.gamma_table) == 1
    doc = s.to_json()
    assert doc["schema"] == 1 and doc["p"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# The tilted-moment root: closed-form ends, oracle judges, extreme laws
# ---------------------------------------------------------------------------

class TestClosedFormEnds:
    def test_inverse_at_one_of_a_point_mass(self):
        assert m_inverse(Distribution.point(3.0), 1.0) == 3.0

    def test_inverse_below_the_jump_is_the_essential_infimum(self):
        assert m_inverse(Distribution.uniform([1.0, 2.0, 3.0]), 1e-300) == 1.0

    def test_inverse_at_one_is_the_mean(self):
        law = make_law((1.0, 0.25), (2.0, 0.75))
        assert m_inverse(law, 1.0) == law.mean

    def test_interior_minimizer_to_rounding(self):
        _, x_star = p_value(QUARTER_TWO)
        assert abs(x_star - 1.0 / 3.0) <= 1e-12


class TestRoot:
    """`_root` has no iteration cap; these count its evaluations."""

    @staticmethod
    def counted(f):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)
        return g, calls

    def test_newton_inside_a_bracket(self):
        f, calls = self.counted(lambda x: (x**3 - 2.0, 3.0 * x * x))
        assert _root(f, 0.0, 2.0, 0.5) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)
        assert len(calls) <= 12

    def test_doubling_while_unbounded(self):
        # flat to the left of the root, where Newton steps would be huge
        f, calls = self.counted(lambda x: (math.tanh(x - 50.0),
                                           1.0 / math.cosh(x - 50.0) ** 2))
        assert _root(f, 0.0) == pytest.approx(50.0, abs=1e-14)
        assert max(calls) <= 100.0 and len(calls) <= 30

    def test_bisection_where_the_slope_vanishes(self):
        f, calls = self.counted(lambda x: (x - 0.3, 0.0))
        assert _root(f, 0.0, 1.0, 0.5) == pytest.approx(0.3, abs=1e-15)
        assert len(calls) <= 60


class TestAgainstOracles:
    """Each functional judged by the dense grids of oracles.py, on random laws."""

    def test_inverse_reaches_z(self, seeded_rng):
        for _ in range(6):
            law = random_x_law(seeded_rng)
            w0 = law.prob(law.ess_inf)
            for f in (0.25, 0.5, 0.75):
                z = w0 + f * (1.0 - w0)
                y = m_inverse(law, z)
                assert oracles.rate_m_grid(law.support, law.weights, y) == \
                    pytest.approx(z, abs=1e-6)

    def test_rate_and_gamma_match_the_grids(self, seeded_rng):
        for _ in range(6):
            law = random_x_law(seeded_rng)
            lo, mu, hi = law.ess_inf, law.mean, law.ess_sup
            for f in (0.25, 0.5, 0.75):
                y = lo + f * (mu - lo)
                assert rate_m(law, y) == pytest.approx(
                    oracles.rate_m_grid(law.support, law.weights, y), abs=1e-7)
                a = mu + f * (hi - mu)
                assert gamma(law, a) == pytest.approx(
                    oracles.gamma_grid(law.support, law.weights, a), abs=1e-7)


class TestExtremeLaws:
    """Supports across the double range and targets one rounding step from a
    jump: every call returns, and no RuntimeWarning (an error under the
    suite's warning filter) is raised on the way."""

    RATIO_LAWS = (Distribution.uniform([1e-300, 1e300]),
                  Distribution.uniform([1e-300, 1.0, 1e300]),
                  make_law((0.0, 0.5), (1e-300, 0.25), (1e300, 0.25)))
    PASSAGE_LAWS = (Distribution.uniform([1e-300, 1e300]),
                    Distribution.uniform([-1e6, 1e6]),
                    make_law((-1e6, 1e-9), (0.0, 1.0 - 2e-9), (1e6, 1e-9)))

    def test_transition_constant(self):
        for law in self.RATIO_LAWS:
            p, x_star = p_value(law)
            d, y_star = dual_p(law)
            assert 0.0 <= x_star <= 1.0 and 0.0 < y_star <= 1.0
            assert d == pytest.approx(p, rel=1e-12)

    def test_next_to_the_essential_infimum(self):
        for law in self.PASSAGE_LAWS:
            lo = law.ess_inf
            w0 = law.prob(lo)
            m = rate_m(law, math.nextafter(lo, math.inf))
            assert w0 <= m <= w0 * (1.0 + 1e-6)
            y = m_inverse(law, math.nextafter(w0, 1.0))
            assert lo <= y <= lo + 1e-6 * (law.ess_sup - lo)

    def test_next_to_the_essential_supremum(self):
        for law in self.PASSAGE_LAWS:
            hi = law.ess_sup
            g = gamma(law, math.nextafter(hi, -math.inf))
            assert g == pytest.approx(math.log(law.prob(hi)), abs=1e-6)

    def test_next_to_the_mean(self):
        for law in self.PASSAGE_LAWS:
            mu = law.mean
            assert rate_m(law, math.nextafter(mu, -math.inf)) == \
                pytest.approx(1.0, abs=1e-12)
            assert gamma(law, math.nextafter(mu, math.inf)) == \
                pytest.approx(0.0, abs=1e-12)
            assert m_inverse(law, math.nextafter(1.0, 0.0)) <= mu
