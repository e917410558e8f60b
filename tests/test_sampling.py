"""The chunked sampling kernel against whole-array oracles, bit for bit."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from treelab import rng, trees
from treelab.ratecalc import Distribution
from treelab.trees import TreeSpec, build_truncation

from conftest import (X32, assert_bits_equal, assorted_trees,
                      random_explicit_spec, table_depth)
import oracles

KEYS = st.integers(min_value=-2**63, max_value=2**64 - 1)
CHUNK_LENGTHS = (0, 1, rng.CHUNK - 1, rng.CHUNK, rng.CHUNK + 1)

NAMED_LAWS = {
    "X32": X32,
    "A2": Distribution.uniform([0.5, 0.75]),
    "gw_offspring": Distribution((1.0, 2.0, 3.0), (0.3, 0.4, 0.3)),
    "tiny_atom": Distribution((1.0, 2.0), (1e-12, 1.0 - 1e-12)),
}


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


def _sorted_law(seed: int, weights) -> Distribution:
    """`_law` with `weights` given in sorted-support order, so the weights
    that sit next to each other in the guide table can be chosen."""
    order = np.random.default_rng(seed).permutation(len(weights))
    w = np.asarray(weights, dtype=np.float64) / math.fsum(weights)
    return Distribution(tuple(float(v) - 7.5 for v in order),
                        tuple(float(x) for x in w[order]))


GUIDE_PATHS = ("gap0", "gap1", "gap2-8", "search")


def _guide_path(law: Distribution) -> str:
    gap = law._guide[3]
    return "search" if gap < 0 else "gap2-8" if gap >= 2 else f"gap{gap}"


@st.composite
def guide_path_laws(draw, path):
    """A law whose guide table takes `path`.  gap0: dyadic weights on a grid
    no finer than the first table.  gap1: up to 40 atoms, none lighter than
    one bucket of the largest table.  gap2-8 and search: such atoms with a
    run of 2 to 6, or 20 to 100, atoms of about 1e-13 after one of them, so
    that a bucket of the largest table holds 3 to 7, or at least 11,
    thresholds."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if path == "gap0":
        n = draw(st.one_of(st.integers(1, 16), st.integers(17, 2000)))
        bits = draw(st.integers(max(n - 1, 1).bit_length(),
                                max(4, n.bit_length() + 1)))
        cuts = np.sort(gen.choice(np.arange(1, 2**bits), size=n - 1, replace=False))
        weights = list(np.diff(np.concatenate(([0], cuts, [2**bits]))) / 2.0**bits)
    else:
        weights = list(gen.uniform(0.05, 1.0, size=draw(st.integers(2, 40))))
        run = {"gap1": (0, 0), "gap2-8": (2, 6), "search": (20, 100)}[path]
        at = draw(st.integers(1, len(weights)))
        weights[at:at] = list(1e-13 * gen.uniform(1.0, 2.0,
                                                  size=draw(st.integers(*run))))
    law = _sorted_law(draw(st.integers(0, 2**32 - 1)), weights)
    assert _guide_path(law) == path
    return law


@st.composite
def counter_ranges(draw):
    """Id ranges of the chunk-edge lengths from a random start, up to ranges
    that end at 2**64."""
    n = draw(st.sampled_from(CHUNK_LENGTHS))
    start = draw(st.one_of(st.integers(0, 2**64 - n), st.just(2**64 - n)))
    return range(start, start + n)


def _ids(c: range) -> np.ndarray:
    """The counters of a range as the uint64 array the oracles take."""
    return np.arange(c.start, c.stop, dtype=np.uint64)


def _assert_kernel_matches_oracles(key: int, c: range) -> None:
    """`mantissa_chunks` (its chunk slices and mantissas) and `uniforms`
    against the oracles' whole-array expression over the same ids."""
    want = (oracles.splitmix_hash(key, _ids(c)) >> np.uint64(11)).astype(np.int64)
    got = [(sl, m.copy()) for sl, m in rng.mantissa_chunks(key, c)]
    assert [sl for sl, _ in got] == [slice(lo, min(lo + rng.CHUNK, len(c)))
                                     for lo in range(0, len(c), rng.CHUNK)]
    for sl, m in got:
        assert_bits_equal(m, want[sl])
    assert_bits_equal(rng.uniforms(key, c), oracles.splitmix_uniforms(key, _ids(c)))


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(KEYS, counter_ranges())
    def test_hash_and_uniforms_match_whole_array_expression(self, key, c):
        _assert_kernel_matches_oracles(key, c)

    @pytest.mark.parametrize("counters", [np.arange(4, dtype=np.uint64),
                                          np.uint64(3), 3, [0, 1, 2]])
    def test_non_range_counters_rejected(self, counters):
        with pytest.raises(TypeError):
            rng.uniforms(1, counters)
        with pytest.raises(TypeError):
            next(rng.mantissa_chunks(1, counters))
        with pytest.raises(TypeError):
            NAMED_LAWS["X32"].sample_values(1, counters)


class TestSampleValues:
    @settings(max_examples=80, deadline=None)
    @given(laws(), KEYS, counter_ranges())
    def test_matches_searchsorted_oracle(self, law, key, c):
        assert_bits_equal(law.sample_values(key, c),
                          oracles.sample_by_searchsorted(law, key, _ids(c)))

    @pytest.mark.parametrize("path", GUIDE_PATHS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_each_guide_path_matches_searchsorted_oracle(self, path, data):
        law = data.draw(guide_path_laws(path))
        key, c = data.draw(KEYS), data.draw(counter_ranges())
        assert_bits_equal(law.sample_values(key, c),
                          oracles.sample_by_searchsorted(law, key, _ids(c)))

    @pytest.mark.parametrize("weights", [
        (0.5, 0.25, 0.25),
        (1 / 1024,) * 1024,
        (1.0,),
        (2.0**-53, 1.0 - 2.0**-53),
        (0.25 - 2.0**-54, 0.25 + 2.0**-54, 0.5),
    ])
    def test_thresholds_on_bucket_edges(self, weights):
        law = _law(1, weights)
        c = range(3 * rng.CHUNK + 5)
        for key in (3, 2**63 + 1):
            assert_bits_equal(law.sample_values(key, c),
                              oracles.sample_by_searchsorted(law, key, _ids(c)))

    @pytest.mark.parametrize("name", sorted(NAMED_LAWS))
    def test_named_laws_over_a_depth_20_tree(self, name):
        law = NAMED_LAWS[name]
        c = range(1, 2**21)
        assert_bits_equal(law.sample_values(601, c),
                          oracles.sample_by_searchsorted(law, 601, _ids(c)))

    def test_wide_buckets_fall_back_to_binary_search(self):
        weights = np.full(4096, 1e-12)
        weights[0] = 1.0 - 4095e-12
        law = _law(2, weights)
        assert law._guide[3] == -1
        c = range(rng.CHUNK + 9)
        assert_bits_equal(law.sample_values(9, c),
                          oracles.sample_by_searchsorted(law, 9, _ids(c)))


def _exp_log(a):
    return np.exp(np.log(a))


@st.composite
def positive_laws(draw):
    """The `laws` weights on a log-uniform support in [1e-300, 1e300]."""
    law = draw(laws())
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = np.unique(10.0 ** gen.uniform(-300.0, 300.0, size=len(law.support)))
    assume(len(support) == len(law.support))
    return Distribution(tuple(float(v) for v in gen.permutation(support)),
                        law.weights)


def _positive_law(weights) -> Distribution:
    """Distinct support from 1e-300 to 1e300, shuffled, with the given weights."""
    support = np.random.default_rng(3).permutation(np.geomspace(1e-300, 1e300,
                                                                len(weights)))
    return Distribution(tuple(float(v) for v in support), tuple(weights))


# one law per guide-table path: every bucket one value (gap 0), a few steps
# per bucket (gap > 0), and binary search (gap -1)
_PATH_WEIGHTS = {
    "gap0": (0.5, 0.25, 0.25),
    "gap>0": (0.5, 1e-9, 0.5 - 1e-9),
    "search": (1.0 - 4095e-12,) + (1e-12,) * 4095,
}


class TestImageTables:
    """`sample_values(..., image=f)` gathers f over the sorted support: the
    same bits as f over the drawn values."""

    @settings(max_examples=80, deadline=None)
    @given(positive_laws(), KEYS, counter_ranges())
    def test_image_draws_match_images_of_draws(self, law, key, c):
        drawn = law.sample_values(key, c)
        assert_bits_equal(law.sample_values(key, c, image=np.log), np.log(drawn))
        assert_bits_equal(law.sample_values(key, c, image=_exp_log),
                          np.exp(np.log(drawn)))

    @pytest.mark.parametrize("path", sorted(_PATH_WEIGHTS))
    def test_each_guide_path(self, path):
        law = _positive_law(_PATH_WEIGHTS[path])
        gap = law._guide[3]
        assert {"gap0": gap == 0, "gap>0": gap > 0, "search": gap == -1}[path]
        c = range(2 * rng.CHUNK + 3)
        drawn = law.sample_values(17, c)
        for image in (np.log, _exp_log):
            assert_bits_equal(law.sample_values(17, c, image=image), image(drawn))

    def test_tables_are_cached_per_image(self):
        law = _positive_law((0.3, 0.7))
        for image in (None, np.log, _exp_log):
            assert law.image_table(image) is law.image_table(image)
        assert law.image_table(np.log) is not law.image_table(_exp_log)

    def test_log_and_exp_are_position_independent(self):
        # the premise of image tables: numpy's log and exp give one value for
        # one input, alone or at any position of a long (vectorized) array
        gen = np.random.default_rng(8)
        vals = np.concatenate([10.0 ** gen.uniform(-300.0, 300.0, 4000),
                               gen.uniform(0.0, 4.0, 4000),
                               [5e-324, 2.2250738585072014e-308, 0.1, 0.35, 1.0,
                                1.7976931348622157e308]])
        for f in (np.log, _exp_log):
            alone = np.array([f(np.array([v]))[0] for v in vals])
            for shift in range(17):  # every value at every SIMD lane offset
                assert_bits_equal(f(np.roll(vals, shift)), np.roll(alone, shift))


# the last two are clamped to 2**64 - n: ranges next to and ending at 2**64
RANGE_STARTS = (0, 1, 12345, 2**63 - 7, 2**64 - rng.CHUNK - 3, 2**64)


class TestRangeCounters:
    """A step-1 range of counters hashes like the oracles' whole-array
    expression over the same ids, including ranges that end at 2**64, where
    (c + 1) * golden wraps."""

    @pytest.mark.parametrize("n", CHUNK_LENGTHS)
    @pytest.mark.parametrize("start", RANGE_STARTS)
    def test_mantissas_and_values(self, n, start):
        start = min(start, 2**64 - n)
        ids = range(start, start + n)
        key = 2**64 - 1 - start % 1000
        _assert_kernel_matches_oracles(key, ids)
        law = NAMED_LAWS["X32"]
        assert_bits_equal(law.sample_values(key, ids),
                          oracles.sample_by_searchsorted(law, key, _ids(ids)))

    def test_out_receives_range_draws(self):
        law = NAMED_LAWS["A2"]
        out = np.zeros(11)
        law.sample_values(6, range(1, 12), out=out)
        assert_bits_equal(out, oracles.sample_by_searchsorted(law, 6,
                                                              _ids(range(1, 12))))

    @pytest.mark.parametrize("ids", [range(0, 10, 2), range(10, 0, -1),
                                     range(-1, 3), range(2**64 - 1, 2**64 + 1)])
    def test_bad_ranges_rejected(self, ids):
        with pytest.raises(ValueError):
            rng.uniforms(1, ids)

    def test_empty_ranges(self):
        for ids in (range(0), range(5, 5), range(2**64, 2**64)):
            assert rng.uniforms(1, ids).shape == (0,)
            assert NAMED_LAWS["A2"].sample_values(1, ids).shape == (0,)


def _boundary_mantissas(law: Distribution) -> np.ndarray:
    """Every mantissa next to a threshold ceil(cw_i * 2**53) or a guide-bucket
    edge, where a comparison that is off by one would show."""
    cw = np.cumsum(np.asarray(law.weights)[np.argsort(law.support)])
    thresholds = [math.ceil(float(w) * 2.0**53) for w in cw[:-1]]
    shift = law._guide[2]
    edges = [j << shift for j in range(1, 1 << (53 - shift))]
    m = np.array([t + d for t in thresholds + edges for d in (-1, 0, 1)], dtype=np.int64)
    return m[(m >= 0) & (m < 2**53)].astype(np.uint64)


@contextlib.contextmanager
def _fed_mantissas(m: np.ndarray):
    """Make the kernel hash range(len(m)) onto the mantissas `m`, CHUNK at a
    time, as if the ids hashed there: its pre-final states are the oracle's
    inverse of the final xor-shift, so the gap-0 path (which reads them) and
    `mantissa_chunks` (which finishes them) both see `m`."""
    z = oracles.prefinal_for_mantissas(m)

    def chunks(key, counters):
        assert counters == range(len(m))
        for lo in range(0, len(m), rng.CHUNK):
            hi = min(lo + rng.CHUNK, len(m))
            yield slice(lo, hi), z[lo:hi].copy(), np.empty(hi - lo, np.uint64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "_prefinal_chunks", chunks)
        yield range(len(m))


def _draws_at(law: Distribution, key: int, m: np.ndarray) -> tuple:
    """`sample_values` where the kernel yields the mantissas `m`, and the
    oracle's draws for counters that hash onto them."""
    with _fed_mantissas(m) as ids:
        got = law.sample_values(key, ids)
    return got, oracles.sample_by_searchsorted(
        law, key, oracles.counters_for_mantissas(key, m))


class TestExactBoundaries:
    """Sampling fed each threshold and bucket edge exactly, judged by the
    oracle on counters built to hash there; random counters land there with
    probability about 2**-53 per draw."""

    @pytest.mark.parametrize("key", [0, 12345, 2**63 + 7])
    def test_inverted_hash_hits_the_requested_mantissas(self, key):
        m = np.array([0, 1, 2**52 - 1, 2**52, 2**53 - 1], dtype=np.uint64)
        c = oracles.counters_for_mantissas(key, m, low_bits=0x5A5)
        h = oracles.splitmix_hash(key, c)
        assert np.array_equal(h >> np.uint64(11), m)
        z = oracles.prefinal_for_mantissas(m, low_bits=0x5A5)
        assert np.array_equal(z ^ (z >> np.uint64(31)), h)

    def test_fed_mantissas_reach_both_kernel_outputs(self):
        m = _boundary_mantissas(NAMED_LAWS["X32"])
        with _fed_mantissas(m) as ids:
            got = np.concatenate([c.copy() for _, c in rng.mantissa_chunks(0, ids)])
        assert np.array_equal(got, m.astype(np.int64))

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
        assert_bits_equal(*_draws_at(law, 99, _boundary_mantissas(law)))

    @settings(max_examples=60, deadline=None)
    @given(laws(), KEYS)
    def test_random_laws_at_their_thresholds(self, law, key):
        assert_bits_equal(*_draws_at(law, key, _boundary_mantissas(law)))

    @pytest.mark.parametrize("path", GUIDE_PATHS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_each_guide_path_at_its_thresholds(self, path, data):
        law = data.draw(guide_path_laws(path))
        assert_bits_equal(*_draws_at(law, data.draw(KEYS), _boundary_mantissas(law)))

    def test_wide_buckets_at_their_thresholds(self):
        weights = np.full(4096, 1e-12)
        weights[0] = 1.0 - 4095e-12
        law = _law(2, weights)
        assert_bits_equal(*_draws_at(law, 5, _boundary_mantissas(law)))


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
        vals = NAMED_LAWS["X32"].sample_values(8, range(tree.n_vertices))
        vals[0] = 0.0
        before = vals.copy()
        assert_bits_equal(tree.sweep_down(vals),
                          oracles.root_path_sums(tree.parent, vals))
        assert_bits_equal(vals, before)  # the input is left untouched

    def test_in_place_matches_copy(self, seeded_rng, monkeypatch):
        monkeypatch.setattr(trees, "_SWEEP_CHUNK", 3)  # chunks split levels
        for tree in assorted_trees(seeded_rng):
            vals = np.array([seeded_rng.uniform(-3, 3) for _ in range(tree.n_vertices)])
            expected = tree.sweep_down(vals)
            assert tree.sweep_down(vals, out=vals) is vals
            assert_bits_equal(vals, expected)
            flags = vals > 0
            expected = tree.sweep_down(flags, np.logical_and)
            tree.sweep_down(flags, np.logical_and, out=flags)
            assert np.array_equal(flags, expected)

    def test_out_must_match_vals(self):
        tree = build_truncation(TreeSpec.homogeneous(2), 3)
        vals = np.ones(tree.n_vertices)
        with pytest.raises(ValueError):
            tree.sweep_down(vals, out=np.ones(tree.n_vertices, dtype=np.float32))
