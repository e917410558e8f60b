"""The keyed hash stream: determinism, splitting, and basic uniformity."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treelab import rng

import oracles


def test_same_key_counter_reproduces():
    a = rng.uniforms(123, range(100))
    b = rng.uniforms(123, range(100))
    assert np.array_equal(a, b)


def test_order_and_chunk_independent():
    full = rng.uniforms(7, range(1000))
    # one id at a time, last id first
    shuffled = np.concatenate([rng.uniforms(7, range(i, i + 1))
                               for i in reversed(range(1000))])[::-1]
    pieces = np.concatenate([rng.uniforms(7, range(300)),
                             rng.uniforms(7, range(300, 1000))])
    assert np.array_equal(full, shuffled)
    assert np.array_equal(full, pieces)


def test_values_in_unit_interval():
    u = rng.uniforms(0, range(10_000))
    assert u.min() >= 0.0 and u.max() < 1.0


def test_keys_decorrelate():
    ids = range(1000)
    a = rng.uniforms(1, ids)
    b = rng.uniforms(2, ids)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_derive_splits_streams():
    base = 99
    k1 = rng.derive(base, 1)
    k2 = rng.derive(base, 2)
    k12 = rng.derive(base, 1, 2)
    assert len({base, k1, k2, k12}) == 4
    assert rng.derive(base, 1) == k1  # derivation is itself deterministic


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1),
       st.lists(st.one_of(st.integers(-2**70, 2**70),
                          st.sampled_from([0, 1, -1, 2**63, 2**64 - 1, -2**63])),
                max_size=4))
def test_derive_matches_numpy_formula(key, tags):
    assert rng.derive(key, *tags) == oracles.derive_numpy(key, *tags)


@pytest.mark.parametrize("key", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("tags", [(), (0,), (2**64 - 1,), (-1,), (-5, 3), (0xED6E, 7, 1)])
def test_derive_named_keys_and_tags(key, tags):
    got = rng.derive(key, *tags)
    assert type(got) is int and 0 <= got < 2**64
    assert got == oracles.derive_numpy(key, *tags)


def test_uniformity_moments():
    u = rng.uniforms(404, range(100_000))
    n = len(u)
    assert abs(u.mean() - 0.5) < 3 * (1 / np.sqrt(12 * n))
    assert abs(u.var() - 1 / 12) < 3e-3


def test_generator_is_seed_stable():
    g1 = rng.generator(5, 1)
    g2 = rng.generator(5, 1)
    assert g1.random() == g2.random()


def test_np_random_only_in_rng():
    """Every draw derives from `rng`: no other module reaches numpy's
    generators, seeded or not."""
    for path in sorted(Path(rng.__file__).parent.glob("*.py")):
        if path.name != "rng.py":
            text = path.read_text()
            assert "np.random" not in text and "numpy.random" not in text, path.name


def test_generator_only_in_percolation():
    """Walks draw keyed uniforms: the sequential PCG64 stream of
    `rng.generator` is named only by its definition and by the trials of
    `percolate --trials`, so no walk drifts back to a stream per trial."""
    named = re.compile(r"\bgenerator\s*\(|\.generator\b|import[^\n]*\bgenerator\b")
    users = {path.name for path in Path(rng.__file__).parent.glob("*.py")
             if named.search(path.read_text())}
    assert users == {"rng.py", "percolation.py"}
