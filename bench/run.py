"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the library is imported from `src/` next to this
directory, and the program exits nonzero without a result when it is not
there.  Each invocation is one in-process `treelab.cli.main(argv)` call, run
closed-loop (one at a time) with the same argv until `--seconds` have passed
and at least three have run.  Every output is checked; an invocation that
exits nonzero or fails a check counts in `failed`.

--trace 0 reports the end-to-end metrics (BENCHMARK.json `end_to_end`):
set-up time as the median of several fresh processes that import
`treelab.cli` and write the workload's input files, the median wall time of
one invocation, vertices per second, and this process's peak RSS.

--trace 1 alternates untraced and traced invocations and reports the
per-layer metrics (BENCHMARK.json `per_layer`), each the median over the
traced invocations, plus the tracing overhead.  Counts named in
`tracing.DETERMINISTIC_COUNTS` must repeat exactly between invocations.

--smoke runs the same argv at a reduced size, in seconds.

Human-readable lines come first; the last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracing import DETERMINISTIC_COUNTS, ROOT, Tracer, layer_metrics
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK = REPO / ".bench_work"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
SETUP_PROBES = 5
MIN_INVOCATIONS = 3


def import_cli():
    """Import treelab.cli from this checkout's sources, or exit nonzero."""
    if not (SRC / "treelab" / "cli.py").is_file():
        raise SystemExit(f"bench: no treelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from treelab import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported treelab from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Invocation:
    wall: float
    problems: list[str]
    layers: dict = field(default_factory=dict)
    traced: bool = False


class Runner:
    """Invokes the CLI for one workload and checks every output."""

    def __init__(self, cli, workload, files: dict[str, str], out: Path):
        self.cli = cli
        self.workload = workload
        self.argv = workload.argv(files, str(out))
        self.out = out
        self.ref = workload.reference(files)
        self.first_digest = None
        self.work = None
        self.invocations: list[Invocation] = []

    def invoke(self, traced: bool) -> None:
        self.out.unlink(missing_ok=True)
        gc.collect()
        tracer = Tracer() if traced else None
        sink = io.StringIO()
        rc, problems = None, []
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    rc = self.cli.main(self.argv)
                    wall = time.perf_counter() - t0
                else:
                    with tracer.installed(), tracer.span(ROOT) as root:
                        rc = self.cli.main(self.argv)
                    wall = root.t1 - root.t0
            except Exception:
                wall = 0.0
                problems.append("raised:\n" + traceback.format_exc())
        if rc != 0 and not problems:
            problems.append(f"exit code {rc}: {sink.getvalue()[-2000:]}")
        if not problems:
            problems = self._check()
        inv = Invocation(wall, problems, traced=traced)
        if tracer is not None and not problems:
            inv.layers = layer_metrics(tracer.spans)
        self.invocations.append(inv)

    def _check(self) -> list[str]:
        data = self.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        doc = json.loads(data)
        problems = self.workload.check(doc, self.ref)
        if digest != self.first_digest:
            problems.append("output bytes differ from the run's first invocation")
        if not problems and self.work is None:
            self.work = self.workload.work(doc)
        return problems

    def loop(self, seconds: float, trace: bool) -> None:
        """Closed loop: next invocation only after the previous one ends."""
        deadline = time.perf_counter() + seconds
        done = 0
        while done < MIN_INVOCATIONS or time.perf_counter() < deadline:
            self.invoke(traced=False)
            if trace:
                self.invoke(traced=True)
            done += 1

    def check_counts(self) -> None:
        """Deterministic counts must repeat across traced invocations."""
        traced = [inv for inv in self.invocations if inv.traced and inv.layers]
        for inv in traced[1:]:
            for key in DETERMINISTIC_COUNTS:
                if inv.layers[key] != traced[0].layers[key]:
                    inv.problems.append(f"count {key} = {inv.layers[key]}, first "
                                        f"traced invocation had {traced[0].layers[key]}")


def measure_setup(workload: str, seed: int, smoke: bool) -> list[float]:
    """Wall time of fresh processes that import treelab.cli and write inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        with tempfile.TemporaryDirectory(dir=WORK) as d:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", d,
                   "--workload", workload, "--seed", str(seed)]
            if smoke:
                cmd.append("--smoke")
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd)
            # a blocking wait: Popen.wait(timeout) polls in steps of up to
            # 50 ms, which would quantize the measurement
            guard = threading.Timer(120, proc.kill)
            guard.start()
            try:
                rc = proc.wait()
                times.append(time.perf_counter() - t0)
            finally:
                guard.cancel()
                guard.join()
            if rc != 0:
                raise SystemExit(f"bench: set-up probe exited with {rc}")
    return times


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(REPO / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    return _read(REPO / ".git" / head[5:])


def provenance(load_before, load_after) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cgroup_cpu_max": _read(Path("/sys/fs/cgroup/cpu.max")),
            "loadavg_before": load_before, "loadavg_after": load_after,
            "commit": git_commit()}


def end_to_end(runner: Runner, setup: list[float]) -> tuple[dict, dict]:
    walls = [inv.wall for inv in runner.invocations if not inv.problems]
    if not walls:
        return {"setup_s": statistics.median(setup)}, {"wall_s_samples": 0}
    wall = statistics.median(walls)
    work = runner.work
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "vertices_per_s": work["vertices"] / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"wall_s_samples": len(walls), "walls": walls, "setups": setup}
    if "walks" in work:
        extra["walks_per_s"] = work["walks"] / wall
    if "br_width" in work:
        extra["br_width"] = work["br_width"]
    return metrics, extra


def per_layer(runner: Runner) -> tuple[dict, dict]:
    traced = [inv for inv in runner.invocations if inv.traced and not inv.problems]
    untraced = [inv.wall for inv in runner.invocations
                if not inv.traced and not inv.problems]
    extra = {"traced_samples": len(traced), "untraced_samples": len(untraced)}
    if not (traced and untraced):
        return {}, extra
    metrics = {key: statistics.median(inv.layers[key] for inv in traced)
               for key in traced[0].layers}
    metrics["trace.overhead_s"] = (statistics.median(inv.wall for inv in traced)
                                   - statistics.median(untraced))
    return metrics, extra


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced sizes")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)

    if args.setup_probe:
        import_cli()
        workload.write_inputs(Path(args.setup_probe))
        return 0

    load_before = os.getloadavg()
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        files = workload.write_inputs(Path(tmp))
        setup = [] if args.trace else measure_setup(args.workload, args.seed,
                                                      args.smoke)
        runner = Runner(cli, workload, files, Path(tmp) / "out.json")
        runner.loop(args.seconds, bool(args.trace))
    if args.trace:
        runner.check_counts()
        metrics, extra = per_layer(runner)
    else:
        metrics, extra = end_to_end(runner, setup)
    load_after = os.getloadavg()

    failed = [inv for inv in runner.invocations if inv.problems]
    for inv in failed[:5]:
        print("bench: failed invocation: " + "; ".join(inv.problems), file=sys.stderr)
    attempted = len(runner.invocations)
    extra["failed_frac"] = len(failed) / attempted

    print(f"# {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations {attempted}  failed {len(failed)}")
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed if m["name"] in metrics}
    for key, unit in units.items():
        print(f"#   {key:28s} {metrics[key]:.6g} {unit}")
    for key in ("failed_frac", "walks_per_s", "br_width", "wall_s_samples"):
        if key in extra:
            print(f"#   {key:28s} {extra[key]:.6g}")
    print("# detail " + json.dumps({"workload": args.workload, "seed": args.seed,
                                    "trace": args.trace, **extra,
                                    "provenance": provenance(load_before, load_after)}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed),
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
