"""Regime classification, walk simulation, and the flow fixed point."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from treelab.errors import ResourceCapError, UnsupportedCaseError, ValidationError
from treelab.ratecalc import Distribution, p_value
from treelab.trees import TreeSpec, build_truncation
from treelab.networks import (Environment, effective_conductance, max_flow,
                              sample_environment)
from treelab.rwre import (CRITERION_BOUNDARY, CRITERION_CUTSET, CRITERION_FAMILY,
                          CRITERION_SUM, CRITERION_TRANSIENT,
                          classify, escape_probability, escape_probability_exact,
                          gw_flow_iterate, simulate_walk, transition_probs)
from treelab import rng, rwre

import oracles
from conftest import table_depth

HOM2 = TreeSpec.homogeneous(2)
SPINE = TreeSpec.spine_with_leaves()


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

class TestClassify:
    def test_transient_binary(self):
        rep = classify(Distribution.uniform([0.5, 0.75]), HOM2, 20)
        assert rep.regime == "Transient"
        assert rep.criterion == CRITERION_TRANSIENT
        assert rep.p == pytest.approx(5 / 8, abs=1e-10)
        assert rep.p * rep.branching_lo == pytest.approx(1.25, abs=1e-9)

    def test_positive_recurrent_binary(self):
        rep = classify(Distribution.point(1 / 3), HOM2, 20)
        assert rep.regime == "PositiveRecurrent"
        assert rep.criterion == CRITERION_SUM
        assert rep.witnesses["partial_sums"]["converges"]

    def test_spine_recurrent_through_cutsets(self):
        rep = classify(Distribution.uniform([0.25, 2.0]), SPINE, 200)
        assert rep.regime == "Recurrent"
        assert rep.criterion == CRITERION_CUTSET
        assert rep.p == pytest.approx(0.944941, abs=1e-6)
        # the full-level sums explode while the spine cutsets vanish
        assert rep.witnesses["partial_sums"]["partial_sum"] > 1e3
        assert rep.witnesses["cutsets"]["decays"]

    def test_boundary_binary_half(self):
        rep = classify(Distribution.point(0.5), HOM2, 20)
        assert rep.regime == "Boundary"
        assert rep.criterion == CRITERION_BOUNDARY
        assert "bounded" in rep.notes

    def test_family_tree_criterion(self):
        off = Distribution.point(2.0)
        t = classify(Distribution.uniform([0.5, 0.75]), TreeSpec.galton_watson(off, 1), 20)
        assert t.regime == "Transient" and t.criterion == CRITERION_FAMILY
        r = classify(Distribution.point(1 / 3), TreeSpec.galton_watson(off, 1), 20)
        assert r.regime == "PositiveRecurrent"
        b = classify(Distribution.point(0.5), TreeSpec.galton_watson(off, 1), 20)
        assert b.regime == "Recurrent"  # the family boundary is recurrent

    def test_subcritical_family_rejected(self):
        off = Distribution.uniform([0.0, 1.0])
        with pytest.raises(ValidationError):
            classify(Distribution.point(0.5), TreeSpec.galton_watson(off, 1), 20)

    def test_scaling_sweeps_through_the_regimes(self):
        # p(c A) is nondecreasing in c, so regimes can only move toward
        # transience as the ratios are scaled up
        law = Distribution.uniform([0.5, 0.75])
        order = {"PositiveRecurrent": 0, "Recurrent": 1, "Boundary": 1,
                 "Inconclusive": 1, "Transient": 2}
        ranks = []
        for c in (0.5, 0.8, 1.3):
            rep = classify(law.scaled(c), HOM2, 20)
            ranks.append(order[rep.regime])
        assert ranks == sorted(ranks)
        assert classify(law.scaled(0.8), HOM2, 20).regime == "Boundary"

    def test_p_monotone_under_scaling(self, seeded_rng):
        from conftest import random_a_law
        for _ in range(10):
            law = random_a_law(seeded_rng)
            ps = [p_value(law.scaled(c))[0] for c in (0.5, 1.0, 2.0)]
            assert ps == sorted(ps)

    def test_explicit_path_is_positive_recurrent(self):
        # a single path with p < 1: the p-power sums form a convergent
        # geometric series, the strongest possible conclusion
        path = TreeSpec.explicit(list(range(40)))
        rep = classify(Distribution.uniform([0.25, 2.0]), path, 40)
        assert not rep.branching_exact
        assert rep.regime == "PositiveRecurrent"

    def test_explicit_doubling_spine_recurrent_with_interval(self):
        # a literal table of the doubling-bundle spine: level sums (2p)**k
        # explode while cutting the single ray costs p**k, so only the cutset
        # witness certifies recurrence, and the branching number is estimated
        parents = []
        spine = 0
        for d in range(16):
            parents.append(spine)                    # the continuing ray
            new_spine = len(parents)
            for _ in range(2 ** (d + 1) - 2):        # dead bundle
                parents.append(spine)
            spine = new_spine
        spec = TreeSpec.explicit(parents, extendable=[spine])
        law = Distribution.uniform([0.5, 1.2])       # p = E[A] = 0.85
        rep = classify(law, spec, 16)
        assert rep.p == pytest.approx(0.85, abs=1e-10)
        assert not rep.branching_exact
        assert rep.regime == "Recurrent"
        assert rep.criterion == CRITERION_CUTSET
        assert rep.witnesses["cutsets"]["decays"]
        assert not rep.witnesses["partial_sums"]["converges"]

    def test_rejects_zero_atoms(self):
        with pytest.raises(UnsupportedCaseError):
            classify(Distribution.uniform([0.0, 2.0]), HOM2, 20)

    def test_report_serializes(self):
        rep = classify(Distribution.uniform([0.5, 0.75]), HOM2, 20)
        doc = rep.to_json()
        assert doc["schema"] == 1 and doc["regime"] == "Transient"
        assert doc["branching"]["exact"] is True


# ---------------------------------------------------------------------------
# transition kernel and walks
# ---------------------------------------------------------------------------

def _env_with(tree, log_a):
    log_a = np.asarray(log_a, dtype=float)
    log_c = log_a.copy()
    for k in range(2, tree.truncation_depth + 1):
        sl = tree.level_slice(k)
        log_c[sl] += log_c[tree.parent[sl]]
    return Environment(tree=tree, law=Distribution.point(1.0), seed=0,
                       log_a=log_a, log_c=log_c)


class TestTransitionProbs:
    def test_internal_ratio_rule(self):
        # parent edge 1, child edges 2 and 1: (1/4, 1/2, 1/4)
        tree = build_truncation(TreeSpec.explicit([0, 1, 1]), 2)
        env = _env_with(tree, [0.0, 0.0, math.log(2.0), 0.0])
        ids, probs = transition_probs(env, 1)
        assert list(ids) == [0, 2, 3]
        assert np.allclose(probs, [0.25, 0.5, 0.25])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_root_rule(self):
        tree = build_truncation(TreeSpec.explicit([0, 0]), 1)
        env = _env_with(tree, [0.0, 0.0, math.log(3.0)])
        ids, probs = transition_probs(env, 0)
        assert list(ids) == [1, 2]
        assert np.allclose(probs, [0.25, 0.75])

    def test_equal_children_symmetric(self):
        tree = build_truncation(HOM2, 3)
        env = sample_environment(tree, Distribution.point(2.0), 0)
        _, probs = transition_probs(env, 1)
        assert probs[1] == pytest.approx(probs[2])


# log A values on both sides of +-700 and past double range: a row compares
# only the ratios A_c, so it must stay finite and exact for these too
_LOG_A = st.one_of(st.floats(-1000.0, 1000.0),
                   st.sampled_from([-800.0, -745.2, -700.0, 0.0, 700.0, 709.9, 800.0]))


@st.composite
def _explicit_env(draw, log_a_values=_LOG_A):
    n = draw(st.integers(2, 14))
    parents = [draw(st.integers(0, i)) for i in range(n - 1)]
    tree = build_truncation(TreeSpec.explicit(parents), table_depth(parents))
    log_a = np.array([0.0] + draw(st.lists(log_a_values, min_size=n - 1,
                                           max_size=n - 1)))
    return Environment(tree=tree, law=Distribution.point(1.0), seed=0, log_a=log_a)


def _row_from_whole_tree(env, v):
    """The kernel row read off the whole-tree log A array."""
    tree = env.tree
    kids = tree.children_slice(v)
    kid_ids = np.arange(kids.start, kids.stop, dtype=np.int64)
    if v == 0:
        ids, log_w = kid_ids, env.log_a[kid_ids]
    else:
        ids = np.concatenate(([tree.parent[v]], kid_ids))
        log_w = np.concatenate(([0.0], env.log_a[kid_ids]))
    weights = np.exp(log_w - log_w.max())
    return ids, weights / weights.sum()


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestLocalKernel:
    """Rows and the escape identity read only the entries they need; the
    values must be bit-identical to reading them off the whole tree."""

    @settings(max_examples=300, deadline=None)
    @given(_explicit_env())
    def test_rows_match_whole_tree_bitwise(self, env):
        for v in range(env.n_vertices):
            ids, probs = transition_probs(env, v)
            ref_ids, ref_probs = _row_from_whole_tree(env, v)
            assert ids.tolist() == ref_ids.tolist()
            assert probs.tobytes() == ref_probs.tobytes()

    # A is a positive double, so log A lies in [-744.4, 709.8]; 700 keeps a
    # sum of 13 level-1 values in range
    @settings(max_examples=200, deadline=None)
    @given(_explicit_env(st.one_of(st.floats(-744.0, 700.0),
                                   st.sampled_from([-744.0, -700.0, 0.0, 700.0]))))
    def test_escape_exact_matches_whole_tree_bitwise(self, env):
        tree = env.tree
        for depth in range(1, tree.truncation_depth + 1):
            g = effective_conductance(tree, env, ground_depth=depth)
            ref = g / float(np.exp(env.log_c[tree.level_slice(1)]).sum())
            assert _bits(escape_probability_exact(env, depth)) == _bits(ref)

    @pytest.mark.parametrize("b,law", [
        (2, Distribution.uniform([0.5, 0.75])),
        (40, Distribution.uniform([1e-3, 1.0, 1e3])),
        (3, Distribution.uniform([1e-200, 1e200])),
    ])
    def test_escape_exact_unchanged_on_sampled_environments(self, b, law):
        tree = build_truncation(TreeSpec.homogeneous(b), 3)
        for seed in range(5):
            env = sample_environment(tree, law, seed)
            for depth in (1, 2, 3):
                g = effective_conductance(tree, env, ground_depth=depth)
                ref = g / float(np.exp(env.log_c[tree.level_slice(1)]).sum())
                assert _bits(escape_probability_exact(env, depth)) == _bits(ref)

    @pytest.mark.parametrize("law", [Distribution.uniform([0.5, 0.75]),
                                     Distribution.uniform([1e-80, 1e80])])
    def test_rows_of_unread_environment(self, law):
        # a row draws only its children: same bits, and nothing else is read
        tree = build_truncation(HOM2, 8)
        for seed in range(3):
            fresh, read = sample_environment(tree, law, seed), sample_environment(tree, law, seed)
            read.log_c
            for v in (0, 1, 2, 5, 100, 254):
                ids, probs = transition_probs(fresh, v)
                ref_ids, ref_probs = transition_probs(read, v)
                assert ids.tolist() == ref_ids.tolist()
                assert probs.tobytes() == ref_probs.tobytes()
            assert fresh._log_a is None and fresh._log_c is None

    def test_escape_leaves_environment_unread(self):
        # the walk and the exact value read a few rows and levels 1..6 of a
        # 2,097,151-vertex environment, never the whole of it
        tree = build_truncation(HOM2, 20)
        env = sample_environment(tree, Distribution.uniform([0.5, 0.75]), 4)
        est = escape_probability(env, 6, 50, 1)
        assert 0.0 < est.exact < 1.0
        assert env._log_a is None and env._log_c is None


# log A within double range (A a double) on both sides of +-700; the products
# C leave double range, which the row never forms
_ROW_LOG_A = st.one_of(st.floats(-709.0, 709.0),
                       st.sampled_from([-709.0, -700.0, -1.0, 0.0, 1.0, 700.0, 709.0]))


class TestExactKernel:
    """Rows against the exact rationals C / (sum of C) on the doubles
    A = exp(log A), for C far outside double range."""

    @settings(max_examples=300, deadline=None)
    @given(_explicit_env(_ROW_LOG_A))
    def test_rows_match_exact_rationals(self, env):
        a = np.exp(env.log_a)
        for v in range(env.n_vertices):
            ids, probs = transition_probs(env, v)
            exact = oracles.kernel_row_exact(env.tree, a, v)
            assert len(exact) == len(probs)
            log_w = env.log_a[ids] if v == 0 else np.concatenate(
                ([0.0], env.log_a[ids[1:]]))
            # rounding: the shift x - max(x) (relative to |x - max(x)|), exp,
            # the doubles A themselves, the sum and the division
            slack = np.abs(log_w - log_w.max()) + len(probs) + 8
            for p, e, sl in zip(probs, exact, slack):
                assert abs(Fraction(float(p)) - e) <= e * Fraction(sl) * Fraction(2.0**-53) \
                    + Fraction(2.0**-1070)
class TestWalks:
    def test_deterministic(self):
        t = build_truncation(HOM2, 8)
        env = sample_environment(t, Distribution.uniform([0.5, 2.0]), 3)
        a = simulate_walk(env, 500, 7)
        b = simulate_walk(env, 500, 7)
        assert np.array_equal(a.occupation, b.occupation)
        assert (a.steps_taken, a.max_depth) == (b.steps_taken, b.max_depth)

    def test_strong_drift_exits_quickly(self):
        # ratios of 4 push outward at speed near 7/9; every run exits a
        # depth-12 window long before 10**4 steps (calibrated: max seen 22)
        t = build_truncation(HOM2, 12)
        for s in range(100):
            env = sample_environment(t, Distribution.point(4.0), rng.derive(8, s))
            w = simulate_walk(env, 10_000, s)
            assert w.exited_truncation
            assert w.steps_taken <= 100
            assert w.max_depth >= w.steps_taken / 100

    def test_empirical_kernel_matches_probabilities(self):
        # chi-square on every vertex visited at least 200 times; the chain is
        # declared finite so the walk never stops at a frontier
        tree = build_truncation(TreeSpec.explicit([0, 1, 1, 2], extendable=[]), 3)
        env = _env_with(tree, [0.0, 0.0, math.log(2.0), 0.0, math.log(0.5)])
        w = simulate_walk(env, 100_000, 11, record_transitions=True)
        checked = 0
        for v, outs in w.transition_counts.items():
            total = sum(outs.values())
            ids, probs = transition_probs(env, v)
            if total < 200 or len(ids) < 2:
                continue
            observed = np.array([outs.get(int(i), 0) for i in ids])
            _, p = scipy.stats.chisquare(observed, probs * total)
            assert p > 0.001, (v, observed, probs)
            checked += 1
        assert checked >= 2

    def test_symmetric_path_balances_steps(self):
        spec = TreeSpec.explicit(list(range(12)), extendable=[])
        tree = build_truncation(spec, 12)
        env = sample_environment(tree, Distribution.point(1.0), 0)
        w = simulate_walk(env, 100_000, 3, record_transitions=True)
        ups = downs = 0
        for v, outs in w.transition_counts.items():
            if 0 < v < tree.n_vertices - 1:
                for target, count in outs.items():
                    if target == int(tree.parent[v]):
                        ups += count
                    else:
                        downs += count
        total = ups + downs
        assert abs(ups / total - 0.5) < 3 * math.sqrt(0.25 / total)


class TestEscape:
    def test_first_level_is_certain(self):
        t = build_truncation(HOM2, 5)
        env = sample_environment(t, Distribution.uniform([0.5, 2.0]), 1)
        est = escape_probability(env, 1, 200, 0)
        assert est.probability == 1.0 and est.exact == pytest.approx(1.0)

    def test_gambler_ruin_on_a_path(self):
        spec = TreeSpec.explicit(list(range(10)))
        t = build_truncation(spec, 10)
        env = sample_environment(t, Distribution.point(1.0), 0)
        est = escape_probability(env, 10, 4000, 0)
        assert est.exact == pytest.approx(1 / 10, rel=1e-12)
        assert abs(est.probability - 0.1) <= 3 * est.stderr

    def test_monte_carlo_matches_identity(self):
        t = build_truncation(HOM2, 10)
        env = sample_environment(t, Distribution.point(1.0), 0)
        est = escape_probability(env, 10, 3000, 1)
        assert abs(est.probability - est.exact) <= 3 * est.stderr

    def test_step_cap_is_a_resource_cap(self, monkeypatch):
        t = build_truncation(HOM2, 5)
        env = sample_environment(t, Distribution.point(1.0), 0)
        monkeypatch.setattr(rwre, "_STEP_CAP", 1)
        with pytest.raises(ResourceCapError, match="1 steps"):
            escape_probability(env, 3, 10, 0)
        # depth 1 resolves on the first step, so the same cap suffices
        assert escape_probability(env, 1, 10, 0).probability == 1.0


# ---------------------------------------------------------------------------
# flow fixed point
# ---------------------------------------------------------------------------

class TestFlowIteration:
    def test_constant_exception_stays_at_one(self):
        # doubling tree with ratios exactly 1/2: capacities carry flow 1
        res = gw_flow_iterate(Distribution.point(0.5), Distribution.point(2.0),
                              1.0, 25, 2000, 0)
        assert all(r.mean_flow == 1.0 for r in res.rows)
        assert all(r.max_flow == 1.0 for r in res.rows)

    def test_mean_identity_every_iteration(self):
        law = Distribution.uniform([0.25, 0.75])
        res = gw_flow_iterate(law, Distribution.point(2.0), 1.0, 40, 50_000, 3)
        for r in res.rows:
            assert abs(r.mean_flow - r.predicted_mean) <= 3 * r.stderr

    def test_critical_mean_decreases(self):
        law = Distribution.uniform([0.25, 0.75])
        res = gw_flow_iterate(law, Distribution.point(2.0), 1.0, 30, 30_000, 1)
        means = [r.mean_flow for r in res.rows]
        assert means[-1] < means[0]
        assert all(b <= a + 3 * res.rows[i + 1].stderr
                   for i, (a, b) in enumerate(zip(means, means[1:])))

    def test_iteration_matches_tree_flow_oracle(self):
        # n sweeps of the recursion reproduce the exact max flow of a depth-n
        # window (both start from a freely fed frontier)
        law = Distribution.uniform([0.25, 0.75])
        depth = 10
        tree = build_truncation(HOM2, depth)
        flows = []
        for seed in range(60):
            env = sample_environment(tree, law, rng.derive(21, seed))
            flows.append(max_flow(tree, np.exp(env.log_c)))
        flows = np.array(flows)
        res = gw_flow_iterate(law, Distribution.point(2.0), 1.0, depth, 60_000, 5)
        tree_se = flows.std(ddof=1) / math.sqrt(len(flows))
        gap = abs(res.final.mean_flow - flows.mean())
        assert gap <= 3 * (tree_se + res.final.stderr)

    def test_exponent_validation(self):
        with pytest.raises(ValidationError):
            gw_flow_iterate(Distribution.point(0.5), Distribution.point(2.0),
                            0.0, 5, 100, 0)

    def test_random_offspring_supported(self):
        law = Distribution.uniform([0.25, 0.75])
        off = Distribution.uniform([1.0, 3.0])
        res = gw_flow_iterate(law, off, 0.5, 10, 20_000, 2)
        assert res.mean_offspring == pytest.approx(2.0)
        for r in res.rows:
            assert abs(r.mean_flow - r.predicted_mean) <= 4 * r.stderr
