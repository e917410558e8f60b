"""Smoke test of the benchmark: every workload at reduced size, checks,
tracing and output.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, trace: int, cwd: Path = REPO):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3, proc.stderr
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    return res["metrics"]


def test_workloads_match_benchmark_json():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end(workload):
    assert all(m["value"] > 0 for m in result(workload, 0).values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_between_runs(workload):
    first, second = result(workload, 1), result(workload, 1)
    for key in tracing.DETERMINISTIC_COUNTS:
        assert first[key]["value"] == second[key]["value"], key


def test_exits_nonzero_without_library(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrappers_reach_every_binding_and_are_removed():
    from treelab import cli, networks, trees  # noqa: F401  (binds every module)

    originals = {name: getattr(sys.modules[mod], attr)
                 for name, mod, attr in tracing.WRAPPED if "." not in attr}
    sites = {name: {m.__name__ for m, _ in tracing.binding_sites(fn)}
             for name, fn in originals.items()}
    assert {"treelab.trees", "treelab.branching", "treelab.fpp",
            "treelab.rwre"} <= sites["trees.extendable_lineage"]
    assert {"treelab.networks", "treelab.rwre",
            "treelab.cli"} <= sites["networks.effective_conductance"]
    sample_values = trees.Distribution.sample_values
    with tracing.Tracer().installed():
        for fn in originals.values():
            assert tracing.binding_sites(fn) == []
        assert trees.Distribution.sample_values is not sample_values
    for name, fn in originals.items():
        assert {m.__name__ for m, _ in tracing.binding_sites(fn)} == sites[name]
    assert trees.Distribution.sample_values is sample_values


@pytest.mark.parametrize("workload,parallel", [("branching-gw", False),
                                               ("conductance-hom2", True)])
def test_self_times_add_up(tmp_path, workload, parallel):
    from treelab import cli

    wl = WORKLOADS[workload](3, smoke=True)
    argv = wl.argv(wl.write_inputs(tmp_path), str(tmp_path / "out.json"))
    tracer = tracing.Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        with tracer.installed(), tracer.span(tracing.ROOT):
            assert cli.main(argv) == 0
    m = tracing.layer_metrics(tracer.spans)
    self_sum = sum(m[k] for k in tracing.SELF_METRICS)
    assert self_sum == pytest.approx(m["trace.self_sum_s"], rel=1e-9)
    # overlapping replicates add their overlap to the wall time
    (root,) = [sp for sp in tracer.spans if sp.name == tracing.ROOT]
    children = [(sp.t0, sp.t1) for sp in tracer.spans if sp.parent == root.sid]
    overlap = sum(b - a for a, b in children) - tracing._covered(children)
    assert self_sum == pytest.approx(m["trace.wall_s"] + overlap, rel=1e-9)
    if not parallel:
        assert overlap == pytest.approx(0.0, abs=1e-12)
