"""The committed CLI output corpus: argv, and the bytes each one gives.

Each case is one in-process `treelab.cli.main(argv)` call.  Its record in
`tests/golden/cases/<name>.json` holds the argv, the exit code, stdout,
stderr and the bytes written to `--out` (null when no file was written).
Paths in argv are written `{inputs}/...` (the files in `tests/golden/inputs`)
and `{tmp}/...` (a scratch directory); the same placeholders stand for those
directories in recorded output.  A case run with environment variables
(`environment(name)`) holds them under "env".  `tests/test_golden.py` reruns
every case and diffs.

The bits are those of the numpy version in `tests/golden/manifest.json`.
Regenerate every record, or only the named ones, from the repository root:

    PYTHONPATH=src python tests/golden_corpus.py [NAME ...]

A change that alters output on purpose regenerates only the records it means
to change and lists them in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from treelab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
CASES_DIR = GOLDEN / "cases"
MANIFEST = GOLDEN / "manifest.json"

# (name, spec file, depth): depths divisible by 2 for `--contract 2` and
# `--proof --k 2`
TREES = (("hom1", "hom1.json", 8), ("hom2", "hom2.json", 8),
         ("hom3", "hom3.json", 6), ("spine", "spine.json", 6),
         ("gw", "gw.json", 8), ("table", "table.txt", 6))

# the 12 subcommand forms: (name, the subcommand and its flags; --tree and
# --depth go after the subcommand)
FORMS = (
    ("tree-branching", ["tree", "--branching", "--cutset-lambda", "1.5"]),
    ("tree-contract", ["tree", "--contract", "2", "--cutset-lambda", "1.5"]),
    ("classify", ["classify", "--dist", "{inputs}/a2.json"]),
    ("conductance-a2", ["conductance", "--dist", "{inputs}/a2.json", "--seeds", "3"]),
    ("conductance-wide", ["conductance", "--dist", "{inputs}/wide.json", "--seeds", "3"]),
    ("flow", ["flow", "--dist", "{inputs}/a2.json", "--seeds", "3", "--w", "0.9"]),
    ("walk-steps", ["walk", "--dist", "{inputs}/a2.json", "--seeds", "3",
                    "--steps", "100"]),
    ("walk-escape", ["walk", "--dist", "{inputs}/a2.json", "--seeds", "3",
                     "--escape-depth", "3", "--trials", "30"]),
    ("fpp", ["fpp", "--dist", "{inputs}/x2.json", "--seeds", "3",
             "--ygrid", "0.2:1.0:0.2"]),
    ("percolate", ["percolate", "--q", "0.4,0.6,0.8", "--trials", "20"]),
    ("proof-rwre", ["percolate", "--proof", "rwre", "--dist", "{inputs}/a2.json",
                    "--seeds", "3", "--k", "2", "--y", "0.8"]),
    ("proof-fpp", ["percolate", "--proof", "fpp", "--dist", "{inputs}/x2.json",
                   "--seeds", "3", "--k", "2", "--y", "0.9", "--bigm", "0.5"]),
)

HOM2 = ["--tree", "{inputs}/hom2.json"]

# exit paths 2 (configuration), 3 (vertex budget) and 4 (unsupported law)
ERRORS = (
    ("missing-file", ["rate", "--dist", "{inputs}/missing.json"]),
    ("branching-tol", ["tree", *HOM2, "--depth", "6", "--branching", "--tol=0"]),
    ("classify-tol", ["classify", *HOM2, "--dist", "{inputs}/a2.json", "--tol=-1"]),
    ("contract-0", ["tree", *HOM2, "--depth", "4", "--contract", "0"]),
    ("no-seeds", ["conductance", *HOM2, "--dist", "{inputs}/a2.json",
                  "--depth", "6", "--seeds", "0"]),
    ("conductance-depth-0", ["conductance", *HOM2, "--dist", "{inputs}/a2.json",
                             "--depth", "0"]),
    ("conductance-depth-neg", ["conductance", *HOM2, "--dist", "{inputs}/a2.json",
                               "--depth=-1"]),
    ("proof-fpp-y", ["percolate", "--proof", "fpp", *HOM2, "--dist",
                     "{inputs}/x2.json", "--depth", "6", "--y=-1"]),
    ("fpp-nan-y", ["fpp", *HOM2, "--dist", "{inputs}/x2.json", "--depth", "6",
                   "--ygrid", "nan"]),
    ("bigm-negative", ["percolate", "--proof", "fpp", *HOM2, "--dist",
                       "{inputs}/x2.json", "--depth", "6", "--bigm=-1"]),
    ("eps-inf", ["percolate", "--proof", "rwre", *HOM2, "--dist",
                 "{inputs}/a2.json", "--depth", "6", "--eps", "inf"]),
    ("classify-depth-1024", ["classify", *HOM2, "--dist", "{inputs}/a2.json",
                             "--depth", "1024"]),
    ("cap-tree", ["tree", *HOM2, "--depth", "40"]),
    ("cap-conductance", ["conductance", *HOM2, "--dist", "{inputs}/a2.json",
                         "--depth", "70"]),
    ("cap-digit-limit", ["conductance", *HOM2, "--dist", "{inputs}/a2.json",
                         "--depth", "20000"]),
    ("cap-flow", ["flow", *HOM2, "--dist", "{inputs}/a2.json", "--depth", "40"]),
    ("cap-walk", ["walk", *HOM2, "--dist", "{inputs}/a2.json", "--depth", "40"]),
    ("cap-fpp", ["fpp", *HOM2, "--dist", "{inputs}/x2.json", "--depth", "40",
                 "--ygrid", "0.5"]),
    ("zero-conductance", ["conductance", *HOM2, "--dist", "{inputs}/zero.json",
                          "--depth", "6", "--seeds", "3"]),
    ("zero-walk", ["walk", *HOM2, "--dist", "{inputs}/zero.json", "--depth", "6",
                   "--seeds", "3", "--steps", "10"]),
    ("zero-proof-rwre", ["percolate", "--proof", "rwre", *HOM2, "--dist",
                         "{inputs}/zero.json", "--depth", "6", "--seeds", "3"]),
)

# exit 3 past the vertex ids of an int64, run with the budget lifted by the
# environment (`UNCAPPED`); the records hold it under "env"
PAST_IDS = (
    ("ids-tree-62", ["tree", *HOM2, "--depth", "62"]),
    ("ids-tree-70", ["tree", *HOM2, "--depth", "70"]),
    ("ids-conductance-62", ["conductance", *HOM2, "--dist", "{inputs}/a2.json",
                            "--depth", "62"]),
    ("ids-conductance-70", ["conductance", *HOM2, "--dist", "{inputs}/a2.json",
                            "--depth", "70"]),
)
UNCAPPED = {"TREELAB_VERTEX_CAP": str(10**30)}


def cases() -> dict[str, list[str]]:
    """Every case's argv by name, with placeholders."""
    out = {}
    for fmt in ("json", "csv"):
        for workers in ("1", "3"):
            tail = ["--seed", "11", "--workers", workers, "--format", fmt,
                    "--out", f"{{tmp}}/out.{fmt}"]
            for form, argv in FORMS:
                for tree, spec, depth in TREES:
                    out[f"{form}-{tree}-{fmt}-w{workers}"] = (
                        argv[:1] + ["--tree", f"{{inputs}}/{spec}", "--depth", str(depth)]
                        + argv[1:] + tail)
            out[f"rate-summary-{fmt}-w{workers}"] = [
                "rate", "--dist", "{inputs}/x2.json", "--op", "summary",
                "--y", "0.3:0.9:0.3", "--z", "0.5,0.9", "--a", "0.5,1.5"] + tail
            if fmt == "json":
                for name, argv in ERRORS + PAST_IDS:
                    out[f"error-{name}-w{workers}"] = argv + tail
    return out


def environment(name: str) -> dict[str, str]:
    """The variables case `name` runs with, beside the default budget."""
    return UNCAPPED if name.startswith("error-ids-") else {}


def run(argv: list[str], tmp: Path, env: dict[str, str] | None = None) -> dict:
    """The record of one case, run in this process with `tmp` as {tmp} and
    the variables `env` set for the call."""
    dirs = {"{inputs}": str(INPUTS), "{tmp}": str(tmp)}

    def fill(text: str) -> str:
        for mark, path in dirs.items():
            text = text.replace(mark, path)
        return text

    def mask(text: str) -> str:
        for mark, path in dirs.items():
            text = text.replace(path, mark)
        return text

    real = [fill(a) for a in argv]
    out_path = Path(real[real.index("--out") + 1])
    stdout, stderr = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, env or {}), contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        code = cli.main(real)
    written = None
    if out_path.exists():
        written = mask(out_path.read_text())
        out_path.unlink()
    record = {"argv": argv, "exit": code, "stdout": mask(stdout.getvalue()),
              "stderr": mask(stderr.getvalue()), "out": written}
    if env:
        record["env"] = env
    return record


def load(name: str) -> dict:
    return json.loads((CASES_DIR / f"{name}.json").read_text())


def regenerate(names: list[str]) -> None:
    every = cases()
    unknown = set(names) - set(every)
    if unknown:
        raise SystemExit(f"unknown cases: {sorted(unknown)}")
    CASES_DIR.mkdir(parents=True, exist_ok=True)
    os.environ.pop("TREELAB_VERTEX_CAP", None)  # the default budget
    with tempfile.TemporaryDirectory() as tmp:
        for name in names or every:
            record = run(every[name], Path(tmp), environment(name))
            (CASES_DIR / f"{name}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n")
    MANIFEST.write_text(json.dumps(
        {"numpy": np.__version__, "python": sys.version.split()[0],
         "cases": len(every)}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
