"""Shared constructors for the test suite."""

import math
import random

import numpy as np
import pytest

from treelab.ratecalc import Distribution
from treelab.trees import TreeSpec, build_truncation, truncate


# 32 evenly spaced passage times on [0.25, 2.0], weights proportional to
# 1/(i+1): the wide-support law of the fpp benchmark
_X32_RAW = [1.0 / (i + 1) for i in range(32)]
X32 = Distribution(tuple(0.25 + i * 1.75 / 31 for i in range(32)),
                   tuple(w / math.fsum(_X32_RAW) for w in _X32_RAW))


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def make_law(*pairs) -> Distribution:
    return Distribution.from_pairs(pairs)


def random_a_law(rng: random.Random, max_support: int = 6,
                 lo: float = 1e-3, hi: float = 1e3) -> Distribution:
    """A nonnegative finite law with log-uniform support, normalized weights."""
    k = rng.randint(1, max_support)
    support = sorted({10.0 ** rng.uniform(-3, 3) for _ in range(k)})
    support = [min(max(s, lo), hi) for s in support]
    support = sorted(set(support))
    weights = [rng.random() for _ in support]
    total = sum(weights)
    weights = [w / total for w in weights]
    weights[-1] = 1.0 - sum(weights[:-1])
    return Distribution(tuple(support), tuple(weights))


def random_x_law(rng: random.Random, max_support: int = 5,
                 span: float = 5.0) -> Distribution:
    k = rng.randint(2, max_support)
    support = sorted({rng.uniform(-span, span) for _ in range(k)})
    weights = [rng.random() for _ in support]
    total = sum(weights)
    weights = [w / total for w in weights]
    weights[-1] = 1.0 - sum(weights[:-1])
    return Distribution(tuple(support), tuple(weights))


def random_explicit_spec(rng: random.Random, n_vertices: int) -> TreeSpec:
    """A random parent table: vertex i attaches to a uniform earlier vertex."""
    parents = [rng.randrange(i) for i in range(1, n_vertices)]
    return TreeSpec.explicit(parents)


def table_depth(parents) -> int:
    """Depth of the tree a parent table describes (vertex i+1 has parent parents[i])."""
    depth = [0]
    for par in parents:
        depth.append(depth[par] + 1)
    return max(depth)


def assorted_trees(rng: random.Random) -> list:
    """Random explicit trees, whose short branches are dead ends, each with
    a shallower truncation; and subcritical family trees, most of which die
    before their depth."""
    trees = []
    for _ in range(15):
        spec = random_explicit_spec(rng, rng.randint(2, 40))
        tree = build_truncation(spec, table_depth(spec.parents))
        trees += [tree, truncate(tree, rng.randint(0, tree.truncation_depth))]
    offspring = Distribution((0.0, 1.0, 2.0), (0.45, 0.25, 0.3))
    trees += [build_truncation(TreeSpec.galton_watson(offspring, seed), 6)
              for seed in range(8)]
    return trees


@pytest.fixture
def seeded_rng():
    return random.Random(20240817)
