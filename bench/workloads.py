"""The benchmark's four workloads: their input files, argv and output checks.

Each workload is one `treelab.cli.main(argv)` call, built so that a different
layer of the library does most of its work (see README.md for the table of
which layer each one isolates and which it leaves idle).  Inputs are pure
functions of the workload seed.  Every invocation in one run uses the same
argv, so every output of a run must also be byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

HOM2 = {"schema": 1, "kind": "homogeneous", "b": 2}

# A2: the 2-atom ratio law of the conductance and walk workloads.
A2 = {"schema": 1, "support": [0.5, 0.75], "weights": [0.5, 0.5]}

# X32: 32 evenly spaced passage times on [0.25, 2.0], weights proportional to
# 1/(i+1): the wide-support sampling case.
_X32_RAW = [1.0 / (i + 1) for i in range(32)]
X32 = {"schema": 1,
       "support": [0.25 + i * 1.75 / 31 for i in range(32)],
       "weights": [w / math.fsum(_X32_RAW) for w in _X32_RAW]}

GW_OFFSPRING = {"schema": 1, "support": [1, 2, 3], "weights": [0.3, 0.4, 0.3]}

# The Galton-Watson spec seed is fixed, not taken from the workload seed.
# Over spec seeds 0..9 the conditioned depth-22 tree has 3.5 M to 13.9 M
# vertices (the limit of Z_n / 2**n has a wide law), so a seed-dependent tree
# would spread `wall_s` by a factor of four across workload seeds.  Seed 7
# gives 4,918,277 vertices.  The workload seed still reaches `--seed`.
GW_SPEC_SEED = 7

Y_GRID = "0.3:1.0:0.05"


def _gw_spec() -> dict:
    return {"schema": 1, "kind": "galton_watson", "offspring": GW_OFFSPRING,
            "seed": GW_SPEC_SEED,
            "condition_nonextinct": True}


def _hom2_vertices(depth: int) -> int:
    return 2 ** (depth + 1) - 1


class Workload:
    """One workload at full or smoke size.

    Subclasses set `name` and the size fields, and implement `inputs`,
    `argv`, `check` and `work`, and `reference` when the check needs one.
    """

    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed

    def inputs(self) -> dict[str, dict]:
        """Input documents by file name; written at set-up."""
        raise NotImplementedError

    def argv(self, files: dict[str, str], out: str) -> list[str]:
        raise NotImplementedError

    def reference(self, files: dict[str, str]):
        """Independently computed expectations, made once per run."""
        return None

    def check(self, doc: dict, ref) -> list[str]:
        """Problems found in one output document; empty when it is correct."""
        raise NotImplementedError

    def work(self, doc: dict) -> dict:
        """Work done by one invocation: vertices (truncation vertices times
        replicates) and, for walk workloads, walks."""
        raise NotImplementedError

    def write_inputs(self, directory: Path) -> dict[str, str]:
        files = {}
        for fname, doc in self.inputs().items():
            path = directory / fname
            path.write_text(json.dumps(doc))
            files[fname] = str(path)
        return files

    def _common(self, out: str) -> list[str]:
        return ["--seed", str(self.seed), "--out", out, "--format", "json"]


class FppHom2(Workload):
    """Keyed sampling of a 32-atom law and root-to-leaf accumulation: 2.1 M
    draws per seed, 20 seeds."""

    name = "fpp-hom2"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.depth, self.seeds = (10, 3) if smoke else (20, 20)

    def inputs(self):
        return {"hom2.json": HOM2, "x32.json": X32}

    def argv(self, files, out):
        return ["fpp", "--tree", files["hom2.json"], "--dist", files["x32.json"],
                "--depth", str(self.depth), "--seeds", str(self.seeds),
                "--ygrid", Y_GRID, "--workers", "2"] + self._common(out)

    def reference(self, files):
        from treelab import rng
        from treelab.fpp import sample_passage_times
        from treelab.ratecalc import Distribution, m_inverse
        from treelab.trees import TreeSpec, build_truncation

        law = Distribution.load(files["x32.json"])
        tree = build_truncation(TreeSpec.homogeneous(2), self.depth)
        x = sample_passage_times(tree, law, rng.derive(self.seed, 0)).x
        # root-path sums recomputed here, not taken from the library
        s = np.zeros(tree.n_vertices)
        for k in range(1, self.depth + 1):
            sl = tree.level_slice(k)
            s[sl] = s[tree.parent[sl]] + x[sl]
        return {"rate": m_inverse(law, 0.5),
                "s_leaves": s[tree.level_slice(self.depth)]}

    def check(self, doc, ref):
        problems = []
        if doc["predicted_rate"] != ref["rate"]:
            problems.append(f"predicted_rate {doc['predicted_rate']!r} != "
                            f"m_inverse(law, 0.5) = {ref['rate']!r}")
        y = doc["y_grid"]
        counts = [r["count"] for r in doc["rows"]]
        if len(counts) != self.seeds * len(y):
            return problems + [f"{len(counts)} rows, expected {self.seeds * len(y)}"]
        for i in range(self.seeds):
            c = counts[i * len(y):(i + 1) * len(y)]
            if any(b < a for a, b in zip(c, c[1:])) or max(c) > 2**self.depth:
                problems.append(f"seed {i}: counts not nondecreasing or > 2^n")
        recount = [int((ref["s_leaves"] <= yy * self.depth).sum()) for yy in y]
        if counts[:len(y)] != recount:
            problems.append("seed 0: counts differ from the independent recount")
        return problems

    def work(self, doc):
        return {"vertices": _hom2_vertices(self.depth) * self.seeds}


class ConductanceHom2(Workload):
    """2-atom sampling and the leaf-to-root conductance DP, 32 replicates
    overlapped by 2 workers."""

    name = "conductance-hom2"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.depth, self.seeds = (10, 4) if smoke else (20, 32)

    def inputs(self):
        return {"hom2.json": HOM2, "a2.json": A2}

    def argv(self, files, out):
        return ["conductance", "--tree", files["hom2.json"],
                "--dist", files["a2.json"], "--depth", str(self.depth),
                "--seeds", str(self.seeds), "--workers", "2"] + self._common(out)

    def reference(self, files):
        from treelab import rng
        from treelab.networks import homogeneous_conductance
        from treelab.ratecalc import Distribution
        from treelab.trees import TreeSpec

        law = Distribution.load(files["a2.json"])
        return [homogeneous_conductance(TreeSpec.homogeneous(2), law, self.depth,
                                        rng.derive(self.seed, i))
                for i in range(self.seeds)]

    def check(self, doc, ref):
        got = [r["conductance"] for r in doc["rows"]]
        if len(got) != len(ref):
            return [f"{len(got)} replicates, expected {len(ref)}"]
        return [f"replicate {i}: {g!r} vs streaming DP {e!r}"
                for i, (g, e) in enumerate(zip(got, ref))
                if not abs(g - e) <= 1e-9 * abs(e)]

    def work(self, doc):
        return {"vertices": _hom2_vertices(self.depth) * self.seeds}


class BranchingGw(Workload):
    """24 min-cut probes of `branching_number` on a 4.9 M-vertex tree, each
    recomputing `extendable_lineage`; value sampling is almost absent."""

    name = "branching-gw"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.depth = 14 if smoke else 22

    def inputs(self):
        return {"gw.json": _gw_spec()}

    def argv(self, files, out):
        return ["tree", "--tree", files["gw.json"], "--depth", str(self.depth),
                "--branching", "--tol", "0.005"] + self._common(out)

    def check(self, doc, ref):
        s = doc["summary"]
        problems = []
        if not s["branching_lo"] <= 2.0 <= s["branching_hi"]:
            problems.append(f"[{s['branching_lo']}, {s['branching_hi']}] "
                            "misses the offspring mean 2.0")
        if s["branching_inconclusive"]:
            problems.append("branching estimate is inconclusive")
        return problems

    def work(self, doc):
        return {"vertices": doc["summary"]["vertices"],
                "br_width": doc["summary"]["branching_hi"]
                - doc["summary"]["branching_lo"]}


class WalkEscape(Workload):
    """Kernel rows: each new row recomputes `conductances(env)` over all
    2,097,151 vertices of the depth-20 environment; walks only reach depth 6,
    so there are at most 63 rows per environment and the stepping is short.

    Not the depth-15, escape-depth-15 walk: its time is mostly in-cache
    interpreter work, which a shared 2-core virtual machine slowed by up to 2x
    for minutes at a time, so its runs spread past the bound (README.md).
    """

    name = "walk-escape"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.depth, self.escape_depth, self.trials, self.seeds = (
            (10, 5, 50, 2) if smoke else (20, 6, 200, 2))

    def inputs(self):
        return {"hom2.json": HOM2, "a2.json": A2}

    def argv(self, files, out):
        return ["walk", "--tree", files["hom2.json"], "--dist", files["a2.json"],
                "--depth", str(self.depth), "--escape-depth", str(self.escape_depth),
                "--trials", str(self.trials), "--seeds", str(self.seeds),
                "--workers", "1"] + self._common(out)

    def check(self, doc, ref):
        rows = doc["rows"]
        if len(rows) != self.seeds:
            return [f"{len(rows)} replicates, expected {self.seeds}"]
        return [f"replicate {r['replicate']}: estimate {r['estimate']} is more "
                f"than 4 stderr from exact {r['exact']}"
                for r in rows
                if not abs(r["estimate"] - r["exact"]) <= 4.0 * r["stderr"]]

    def work(self, doc):
        return {"vertices": _hom2_vertices(self.depth) * self.seeds,
                "walks": self.trials * self.seeds}


WORKLOADS = {w.name: w for w in (FppHom2, ConductanceHom2, BranchingGw, WalkEscape)}
