"""The benchmark's four workloads (`bench/workloads.py`) at smoke size: each
argv runs through `cli.main` in this process, and the workload's own
reference and check find no problem in its output.  The checks read the
library (`PassageSample.x`, `homogeneous_conductance`, `tree.parent`), so a
change that breaks what the benchmark reads fails here.  The workloads'
source is only read and executed, never imported from its directory or
changed."""

import json
import types
from pathlib import Path

import pytest

from treelab import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load() -> types.ModuleType:
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), vars(module))
    return module


MODULE = _load()


@pytest.mark.parametrize("name", sorted(MODULE.WORKLOADS))
def test_smoke_workload_passes_its_own_check(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TREELAB_VERTEX_CAP", raising=False)  # the default budget
    workload = MODULE.WORKLOADS[name](seed=11, smoke=True)
    files = workload.write_inputs(tmp_path)
    out = tmp_path / "out.json"
    assert cli.main(workload.argv(files, str(out))) == 0
    doc = json.loads(out.read_text())
    assert workload.check(doc, workload.reference(files)) == []
    assert workload.work(doc)["vertices"] > 0
