"""The chunked sampling kernel against whole-array oracles, bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treelab import rng, trees
from treelab.ratecalc import Distribution
from treelab.trees import TreeSpec, build_truncation

from conftest import random_explicit_spec, table_depth
import oracles

KEYS = st.integers(min_value=0, max_value=2**64 - 1)
CHUNK_LENGTHS = (0, 1, rng.CHUNK - 1, rng.CHUNK, rng.CHUNK + 1)

_X32_RAW = [1.0 / (i + 1) for i in range(32)]
NAMED_LAWS = {
    "X32": Distribution(tuple(0.25 + i * 1.75 / 31 for i in range(32)),
                        tuple(w / math.fsum(_X32_RAW) for w in _X32_RAW)),
    "A2": Distribution.uniform([0.5, 0.75]),
    "gw_offspring": Distribution((1.0, 2.0, 3.0), (0.3, 0.4, 0.3)),
    "tiny_atom": Distribution((1.0, 2.0), (1e-12, 1.0 - 1e-12)),
}


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _law(support_seed: int, weights) -> Distribution:
    """Shuffled distinct support (so sorting matters) with the given weights."""
    support = np.random.default_rng(support_seed).permutation(len(weights))
    return Distribution(tuple(float(s) - 7.5 for s in support),
                        tuple(float(w) for w in weights))


@st.composite
def laws(draw):
    """1 to 4096 atoms: log-uniform weights in [1e-12, 1], or dyadic weights
    whose cumulative sums land on guide-bucket edges."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 4096)))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    if draw(st.booleans()):
        raw = 10.0 ** gen.uniform(-12.0, 0.0, size=n)
        weights = raw / math.fsum(raw)
    else:
        bits = max(n - 1, 1).bit_length() + draw(st.integers(0, 6))
        cuts = np.sort(gen.choice(np.arange(1, 2**bits), size=n - 1, replace=False))
        weights = np.diff(np.concatenate(([0], cuts, [2**bits]))) / 2.0**bits
    return _law(seed, weights)


@st.composite
def counter_arrays(draw):
    """Counter arrays of the chunk-edge lengths, contiguous or strided."""
    n = draw(st.sampled_from(CHUNK_LENGTHS))
    seed = draw(st.integers(0, 2**32 - 1))
    step = draw(st.sampled_from((1, 2, -1, -3)))
    base = np.random.default_rng(seed).integers(0, 2**64, size=n * abs(step),
                                                dtype=np.uint64)
    return base[::step] if step > 0 else base[::step][:n]


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(KEYS, counter_arrays())
    def test_hash_and_uniforms_match_whole_array_expression(self, key, c):
        assert_bits_equal(rng.hash_u64(key, c), oracles.splitmix_hash(key, c))
        assert_bits_equal(rng.uniforms(key, c), oracles.splitmix_uniforms(key, c))

    @pytest.mark.parametrize("key", [0, 5, 2**63, 2**63 + 11, 2**64 - 1, -3])
    def test_scalar_and_2d_counters(self, key):
        for c in (np.uint64(7), 0, np.arange(12, dtype=np.uint64).reshape(3, 4).T):
            assert_bits_equal(rng.uniforms(key, c), oracles.splitmix_uniforms(key, c))
            assert_bits_equal(rng.hash_u64(key, c), oracles.splitmix_hash(key, c))
        assert isinstance(rng.uniforms(key, 3), np.float64)


class TestSampleValues:
    @settings(max_examples=80, deadline=None)
    @given(laws(), KEYS, counter_arrays())
    def test_matches_searchsorted_oracle(self, law, key, c):
        assert_bits_equal(law.sample_values(key, c),
                          oracles.sample_by_searchsorted(law, key, c))

    @pytest.mark.parametrize("weights", [
        (0.5, 0.25, 0.25),
        (1 / 1024,) * 1024,
        (1.0,),
        (2.0**-53, 1.0 - 2.0**-53),
        (0.25 - 2.0**-54, 0.25 + 2.0**-54, 0.5),
    ])
    def test_thresholds_on_bucket_edges(self, weights):
        law = _law(1, weights)
        c = np.arange(3 * rng.CHUNK + 5, dtype=np.uint64)
        for key in (3, 2**63 + 1):
            assert_bits_equal(law.sample_values(key, c),
                              oracles.sample_by_searchsorted(law, key, c))

    @pytest.mark.parametrize("name", sorted(NAMED_LAWS))
    def test_named_laws_over_a_depth_20_tree(self, name):
        law = NAMED_LAWS[name]
        c = np.arange(1, 2**21, dtype=np.uint64)
        assert_bits_equal(law.sample_values(601, c),
                          oracles.sample_by_searchsorted(law, 601, c))

    def test_wide_buckets_fall_back_to_binary_search(self):
        weights = np.full(4096, 1e-12)
        weights[0] = 1.0 - 4095e-12
        law = _law(2, weights)
        assert law._guide[3] == -1
        c = np.arange(rng.CHUNK + 9, dtype=np.uint64)
        assert_bits_equal(law.sample_values(9, c),
                          oracles.sample_by_searchsorted(law, 9, c))

    def test_scalar_counter(self):
        law = NAMED_LAWS["X32"]
        for c in (0, 17, np.uint64(2**63)):
            got = law.sample_values(4, c)
            assert isinstance(got, np.float64)
            assert got == oracles.sample_by_searchsorted(law, 4, c)


def _boundary_mantissas(law: Distribution) -> np.ndarray:
    """Every mantissa next to a threshold ceil(cw_i * 2**53) or a guide-bucket
    edge, where a comparison that is off by one would show."""
    cw = np.cumsum(np.asarray(law.weights)[np.argsort(law.support)])
    thresholds = [math.ceil(float(w) * 2.0**53) for w in cw[:-1]]
    shift = law._guide[2]
    edges = [j << shift for j in range(1, 1 << (53 - shift))]
    m = np.array([t + d for t in thresholds + edges for d in (-1, 0, 1)], dtype=np.int64)
    return m[(m >= 0) & (m < 2**53)].astype(np.uint64)


class TestExactBoundaries:
    """Counters built to hash onto each threshold and bucket edge exactly;
    random counters land there with probability about 2**-53 per draw."""

    @pytest.mark.parametrize("key", [0, 12345, 2**63 + 7])
    def test_inverted_hash_hits_the_requested_mantissas(self, key):
        m = np.array([0, 1, 2**52 - 1, 2**52, 2**53 - 1], dtype=np.uint64)
        c = oracles.counters_for_mantissas(key, m, low_bits=0x5A5)
        assert np.array_equal(oracles.splitmix_hash(key, c) >> np.uint64(11), m)

    @pytest.mark.parametrize("weights", [
        (0.5, 0.25, 0.25),
        (0.5 - 2.0**-53, 0.5 + 2.0**-53),  # threshold on a bucket's last m
        (0.25 - 2.0**-54, 0.25 + 2.0**-54, 0.5),
        (2.0**-53, 1.0 - 2.0**-53),
        (1e-12, 1.0 - 1e-12),
        (0.3, 0.4, 0.3),
    ])
    def test_named_boundaries(self, weights):
        law = _law(3, weights)
        c = oracles.counters_for_mantissas(99, _boundary_mantissas(law))
        assert_bits_equal(law.sample_values(99, c),
                          oracles.sample_by_searchsorted(law, 99, c))

    @settings(max_examples=60, deadline=None)
    @given(laws(), KEYS)
    def test_random_laws_at_their_thresholds(self, law, key):
        c = oracles.counters_for_mantissas(key, _boundary_mantissas(law))
        assert_bits_equal(law.sample_values(key, c),
                          oracles.sample_by_searchsorted(law, key, c))

    def test_wide_buckets_at_their_thresholds(self):
        weights = np.full(4096, 1e-12)
        weights[0] = 1.0 - 4095e-12
        law = _law(2, weights)
        c = oracles.counters_for_mantissas(5, _boundary_mantissas(law))
        assert_bits_equal(law.sample_values(5, c),
                          oracles.sample_by_searchsorted(law, 5, c))


class TestSweepDown:
    def test_matches_vertex_loop_on_random_trees(self, seeded_rng, monkeypatch):
        monkeypatch.setattr(trees, "_SWEEP_CHUNK", 3)  # chunks split levels
        for _ in range(30):
            spec = random_explicit_spec(seeded_rng, seeded_rng.randint(2, 60))
            tree = build_truncation(spec, table_depth(spec.parents))
            vals = np.array([seeded_rng.uniform(-3, 3) for _ in range(tree.n_vertices)])
            vals[0] = 0.0
            assert_bits_equal(tree.sweep_down(vals),
                              oracles.root_path_sums(tree.parent, vals))

    def test_matches_vertex_loop_across_chunks(self):
        tree = build_truncation(TreeSpec.homogeneous(2), 17)
        vals = NAMED_LAWS["X32"].sample_values(8, np.arange(tree.n_vertices,
                                                           dtype=np.uint64))
        vals[0] = 0.0
        before = vals.copy()
        assert_bits_equal(tree.sweep_down(vals),
                          oracles.root_path_sums(tree.parent, vals))
        assert_bits_equal(vals, before)  # the input is left untouched
