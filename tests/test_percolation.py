"""Survival recursions, Monte Carlo twins, and the contracted threshold
percolations with enumeration oracles."""

import json
import math

import numpy as np
import pytest

from treelab import cli
from treelab.errors import ValidationError
from treelab.ratecalc import Distribution, exact_tail
from treelab.trees import TreeSpec, build_truncation, contract_k
from treelab.networks import sample_environment
from treelab.fpp import sample_passage_times
from treelab.percolation import (_segment_folds, percolate_sample,
                                 proof_percolation_fpp, proof_percolation_rwre,
                                 survival_monte_carlo, survival_probability,
                                 survival_probability_tree)

from conftest import assorted_trees
import oracles

HOM2 = TreeSpec.homogeneous(2)


class TestSurvival:
    def test_full_retention(self):
        for spec in (HOM2, TreeSpec.spine_with_leaves()):
            assert survival_probability(spec, 1.0, 12) == 1.0

    def test_two_steps_by_hand(self):
        assert survival_probability(HOM2, 0.5, 1) == pytest.approx(3 / 4)
        assert survival_probability(HOM2, 0.5, 2) == pytest.approx(39 / 64)

    def test_supercritical_fixed_point(self):
        # 1 - (1 - 3f/4)**2 = f has the stable root 8/9
        assert survival_probability(HOM2, 0.75, 200) == pytest.approx(8 / 9,
                                                                      abs=1e-6)

    def test_critical_decay(self):
        assert survival_probability(HOM2, 0.5, 200) <= 0.05

    def test_spine_survival(self):
        for d in (1, 5, 20):
            assert survival_probability(TreeSpec.spine_with_leaves(), 0.8,
                                        d) == pytest.approx(0.8**d, rel=1e-12)

    def test_scalar_matches_tree_dp(self):
        for q in (0.3, 0.5, 0.8):
            for d in (3, 7):
                tree = build_truncation(HOM2, d)
                assert survival_probability(HOM2, q, d) == pytest.approx(
                    survival_probability_tree(tree, q), rel=1e-12)

    def test_family_tree_survival_uses_realized_counts(self):
        spec = TreeSpec.galton_watson(Distribution.uniform([0.0, 1.0, 2.0, 3.0]),
                                      seed=4)
        tree = build_truncation(spec, 6)
        assert survival_probability(spec, 0.9, 6) == pytest.approx(
            survival_probability_tree(tree, 0.9), rel=1e-12)

    def test_q_validation(self):
        with pytest.raises(ValidationError):
            survival_probability(HOM2, 1.5, 4)


class TestLevelSweepsAgainstVertexLoops:
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 1.0])
    def test_survival_recursion(self, seeded_rng, q):
        for t in assorted_trees(seeded_rng):
            assert survival_probability_tree(t, q).hex() == \
                oracles.survival_by_recursion(t, q).hex()

    def test_reached_set(self, seeded_rng):
        for i, t in enumerate(assorted_trees(seeded_rng)):
            s = percolate_sample(t, 0.7, i)
            want = oracles.reached_by_loop(t.parent, s.open_edges)
            assert s.reached.tolist() == want
            assert s.survived == any(r and e for r, e in zip(want, t.extendable))

    def test_segment_stats(self, seeded_rng):
        for t in assorted_trees(seeded_rng):
            vals = np.array([seeded_rng.uniform(-3, 3) for _ in range(t.n_vertices)])
            for k in range(1, t.truncation_depth + 1):
                if t.truncation_depth % k:
                    continue
                c = contract_k(t, k)
                total = [oracles.segment_fold_by_steps(t.parent, vals, int(v), k, np.add)
                         for v in c.source_vertices]
                for extreme in (np.minimum, np.maximum):
                    got_total, got_extreme = _segment_folds(t, c, vals, k, extreme)
                    assert got_total.tolist() == total
                    assert got_extreme.tolist() == [
                        oracles.segment_fold_by_steps(t.parent, vals, int(v), k, extreme)
                        for v in c.source_vertices]


class TestPercolateSample:
    def test_zero_retention(self):
        t = build_truncation(HOM2, 5)
        s = percolate_sample(t, 0.0, 3)
        assert not s.open_edges.any() and not s.survived
        assert s.reached_depth == 0

    def test_full_retention(self):
        t = build_truncation(HOM2, 5)
        s = percolate_sample(t, 1.0, 3)
        assert s.survived and s.reached_depth == 5

    def test_seed_reproducibility(self):
        t = build_truncation(HOM2, 8)
        a = percolate_sample(t, 0.7, 42)
        b = percolate_sample(t, 0.7, 42)
        assert np.array_equal(a.open_edges, b.open_edges)
        assert a.survived == b.survived

    def test_reached_requires_open_ancestry(self):
        t = build_truncation(HOM2, 6)
        s = percolate_sample(t, 0.6, 9)
        par = t.parent[1:]
        assert np.all(~s.reached[1:] | (s.open_edges[1:] & s.reached[par]))


class TestMonteCarlo:
    @pytest.mark.parametrize("q,depth", [(0.4, 8), (0.6, 8), (0.75, 12)])
    def test_tree_sampling_matches_exact(self, q, depth):
        est, se = survival_monte_carlo(
            TreeSpec.galton_watson(Distribution.point(2.0), seed=1), q, depth,
            2000, seed=5)
        exact = survival_probability(HOM2, q, depth)
        assert abs(est - exact) <= 3 * se

    @pytest.mark.parametrize("q,depth", [(0.55, 20), (0.75, 30)])
    def test_frontier_chain_matches_exact(self, q, depth):
        est, se = survival_monte_carlo(HOM2, q, depth, 4000, seed=9)
        exact = survival_probability(HOM2, q, depth)
        assert abs(est - exact) <= 3 * se

    def test_worker_independence_of_trials(self):
        # trial seeds are derived, so any chunking gives identical outcomes
        a = survival_monte_carlo(HOM2, 0.7, 10, 500, seed=3)
        b = survival_monte_carlo(HOM2, 0.7, 10, 500, seed=3)
        assert a == b


class TestProofPercolationRatios:
    def test_unit_ratios_all_kept(self):
        t = build_truncation(HOM2, 6)
        env = sample_environment(t, Distribution.point(1.0), 0)
        pp = proof_percolation_rwre(env, 3, 1.0, 1.0)
        assert pp.q_hat == 1.0 and pp.survived

    def test_reads_no_conductances(self, tmp_path, monkeypatch):
        # segment totals are folded from log A: `percolate --proof rwre`
        # never forms the root-path sums log C
        envs = []

        def recording(*args):
            envs.append(sample_environment(*args))
            return envs[-1]

        files = {}
        for name, doc in (("tree", HOM2.to_json()),
                          ("law", Distribution.uniform([0.5, 2.0]).to_json())):
            files[name] = str(tmp_path / f"{name}.json")
            with open(files[name], "w") as fh:
                json.dump(doc, fh)
        monkeypatch.setattr(cli, "sample_environment", recording)
        for k in ("1", "2"):
            assert cli.main(["percolate", "--proof", "rwre", "--tree", files["tree"],
                             "--dist", files["law"], "--depth", "6", "--k", k,
                             "--y", "0.9", "--seeds", "2"]) == 0
        assert len(envs) == 4
        assert all(env._log_a is not None and env._log_c is None for env in envs)

    def test_small_ratios_all_deleted(self):
        t = build_truncation(HOM2, 4)
        env = sample_environment(t, Distribution.point(0.5), 0)
        pp = proof_percolation_rwre(env, 1, 0.75, 1e-9)
        assert pp.q_hat == 0.0 and not pp.survived

    def test_retention_rate_matches_enumeration(self):
        law = Distribution.uniform([0.5, 2.0])
        t = build_truncation(HOM2, 9)
        exact = oracles.retention_product(law.support, law.weights, 3, 1.0, 0.25)
        assert exact == pytest.approx(0.5)  # at least two doublings out of three
        rates = []
        for seed in range(5):
            env = sample_environment(t, law, seed)
            pp = proof_percolation_rwre(env, 3, 1.0, 0.25)
            rates.append(pp.q_hat)
            assert abs(pp.q_hat - exact) <= 4 * pp.q_hat_stderr
        assert abs(np.mean(rates) - exact) <= 0.05

    def test_floor_deletes_segments_with_small_steps(self):
        law = Distribution.uniform([0.5, 2.0])
        t = build_truncation(HOM2, 6)
        env = sample_environment(t, law, 3)
        # threshold above 1/2 kills every segment containing a 1/2
        pp = proof_percolation_rwre(env, 2, 0.9, 0.6)
        src = pp.contracted.source_vertices
        nonroot = src > 0
        has_half = np.zeros(pp.contracted.n_vertices, dtype=bool)
        for v in np.nonzero(nonroot)[0]:
            o = src[v]
            vals = [env.log_a[o], env.log_a[t.parent[o]]]
            has_half[v] = min(vals) < math.log(0.6)
        assert not (pp.open_edges & has_half).any()

    def test_retention_beats_the_cut_bound_when_certified(self):
        # when the plain product tail already beats the branching bound, the
        # realized retention rate does too
        law = Distribution.uniform([0.5, 2.0])
        log_law = Distribution.uniform([math.log(0.5), math.log(2.0)])
        k, y, br = 3, 1.0, 2.0
        tail = exact_tail(log_law, k, math.log(y) / 1.0)  # P[product >= y**k]
        bound = (y * br) ** -k
        assert tail > bound
        t = build_truncation(HOM2, 9)
        for seed in range(3):
            env = sample_environment(t, law, seed)
            pp = proof_percolation_rwre(env, k, y, 0.25)
            assert pp.q_hat > bound - 3 * pp.q_hat_stderr


class TestProofPercolationTimes:
    def test_unit_times_all_kept(self):
        t = build_truncation(HOM2, 4)
        s = sample_passage_times(t, Distribution.point(1.0), 0)
        pp = proof_percolation_fpp(s, 2, 1.0, 1.0)
        assert pp.q_hat == 1.0 and pp.survived

    def test_slow_times_all_deleted(self):
        t = build_truncation(HOM2, 4)
        s = sample_passage_times(t, Distribution.point(2.0), 0)
        pp = proof_percolation_fpp(s, 1, 1.0, 10.0)
        assert pp.q_hat == 0.0

    def test_retention_rate_matches_enumeration(self):
        law = Distribution.uniform([0.0, 1.0])
        exact = oracles.retention_sum(law.support, law.weights, 2, 0.5, 1.0)
        assert exact == pytest.approx(3 / 4)
        t = build_truncation(HOM2, 8)
        for seed in range(5):
            s = sample_passage_times(t, law, seed)
            pp = proof_percolation_fpp(s, 2, 0.5, 1.0)
            assert abs(pp.q_hat - exact) <= 4 * pp.q_hat_stderr

    def test_cap_deletes_segments_with_large_steps(self):
        law = Distribution.uniform([0.0, 1.0])
        t = build_truncation(HOM2, 6)
        s = sample_passage_times(t, law, 1)
        pp = proof_percolation_fpp(s, 2, 2.0, 0.5)  # generous sum, harsh cap
        src = pp.contracted.source_vertices
        for v in np.nonzero(src > 0)[0]:
            o = src[v]
            if pp.open_edges[v]:
                assert max(s.x[o], s.x[t.parent[o]]) <= 0.5 + 1e-12

    def test_depth_divisibility(self):
        t = build_truncation(HOM2, 5)
        s = sample_passage_times(t, Distribution.point(1.0), 0)
        with pytest.raises(ValidationError):
            proof_percolation_fpp(s, 2, 1.0, 1.0)
