"""Command-line front end: parse specs, run experiments, emit tables/CSV/JSON.

All randomness flows from --seed through derived per-replicate keys, so a
rerun with the same flags is byte-identical regardless of --workers.  Exit
codes: 0 success, 2 bad configuration, 3 resource cap, 4 unsupported case.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import (ResourceCapError, UnsupportedCaseError, ValidationError,
                     jsonable, parse)
from .ratecalc import (Distribution, dual_p, exact_tail, gamma, m_inverse,
                       p_value, rate_m, summarize)
from .trees import TreeSpec, build_truncation, contract_k, load_parent_list
from .branching import cutset_min, estimate_branching, growth_rate
from .networks import (capacity_flow, effective_conductance, sample_environment,
                       weighted_cut_inf)
from .rwre import classify, escape_probability, simulate_walk
from .fpp import fpp_setup, sample_passage_times
from .percolation import (proof_percolation_fpp, proof_percolation_rwre,
                          survival_monte_carlo, survival_probability)
from . import rng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_UNSUPPORTED = 4


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def _columns(rows: list[dict]) -> list[str]:
    """Every key of the rows, in first-seen order (rows may differ in keys)."""
    return list(dict.fromkeys(k for r in rows for k in r))


def _print_table(rows: list[dict], stream=None) -> None:
    stream = stream or sys.stdout
    if not rows:
        print("(no rows)", file=stream)
        return
    cols = _columns(rows)
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(cols)]
    print("  ".join(c.ljust(w) for c, w in zip(cols, widths)), file=stream)
    for row in cells:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)), file=stream)


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=_columns(rows), lineterminator="\n")
        writer.writeheader()
        for r in rows:
            writer.writerow({k: _fmt(v) for k, v in r.items()})
    return buf.getvalue()


def _write_json(doc, fh, indent=None) -> None:
    """Write doc as one strict JSON document (RFC 8259) and a newline:
    non-finite floats become "inf", "-inf" or "nan" (see `jsonable`)."""
    fh.write(json.dumps(jsonable(doc), sort_keys=True, indent=indent,
                        allow_nan=False) + "\n")


def _emit(rows: list[dict], summary: dict | None, args,
          doc: dict | None = None) -> None:
    """Human table on stdout; optional CSV/JSON file per --format.  The JSON
    file is `doc` when given, else the rows and summary."""
    _print_table(rows)
    for k, v in (summary or {}).items():
        print(f"# {k} = {_fmt(v)}")
    if args.out:
        with open(args.out, "w") as fh:
            if args.format == "csv":
                fh.write(_rows_to_csv(rows))
            else:
                if doc is None:
                    doc = {"schema": 1, "rows": rows}
                    if summary:
                        doc["summary"] = summary
                _write_json(doc, fh)


def _load_spec(args) -> TreeSpec:
    if args.tree.endswith(".txt"):
        return load_parent_list(args.tree)
    return TreeSpec.load(args.tree)


def _grid(text: str) -> list[float]:
    """Parse 'start:stop:step' (inclusive ends, within half a step) or 'a,b,c';
    a -0 is 0.0."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError("grid must be start:stop:step")
        start, stop, step = (parse(float, p, "grid value") for p in parts)
        if step <= 0:
            raise ValidationError("grid step must be positive")
        n = int(math.floor((stop - start) / step + 0.5)) + 1
        return [start + i * step for i in range(max(n, 1))]
    return [parse(float, p, "grid value") + 0.0 for p in text.split(",") if p]


def _replicated(fn, count: int, workers: int) -> list:
    """Run fn(i) for i in range(count); output order is by index always."""
    if workers <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_tree(args) -> int:
    spec = _load_spec(args)
    full = tree = build_truncation(spec, args.depth)
    if args.contract is not None:
        tree = contract_k(tree, args.contract)
    sizes, frontier = tree.level_sizes(), tree.frontier
    rows = [{"level": k, "count": int(c)} for k, c in enumerate(sizes)]
    summary = {
        "vertices": tree.n_vertices,
        "growth_rate": growth_rate(tree),
        # extendable vertices lie on the frontier level; None: all of it
        "extendable_frontier": int(sizes[-1] if frontier is None else frontier.sum()),
    }
    if args.branching:
        est = estimate_branching(full, args.tol)
        summary.update({"branching_lo": est.lo, "branching_hi": est.hi,
                        "branching_inconclusive": est.inconclusive})
    if args.cutset_lambda is not None:
        summary["cutset_min"] = cutset_min(tree, args.cutset_lambda)
    _emit(rows, summary, args)
    return EXIT_OK


def _need(value: str | None, flag: str) -> str:
    if value is None:
        raise ValidationError(f"--{flag} is required for this op")
    return value


def _cmd_rate(args) -> int:
    law = Distribution.load(args.dist)
    rows: list[dict] = []
    summary: dict = {}
    if args.op == "p":
        p, x_star = p_value(law)
        rows.append({"op": "p", "value": p, "arg": x_star})
    elif args.op == "dual":
        p, x_star = p_value(law)
        d, y_star = dual_p(law)
        rows.append({"op": "p", "value": p, "arg": x_star})
        rows.append({"op": "dual", "value": d, "arg": y_star})
        summary["gap"] = abs(p - d)
    elif args.op == "m":
        for y in _grid(_need(args.y, "y")):
            rows.append({"op": "m", "y": y, "value": rate_m(law, y)})
    elif args.op == "minv":
        for z in _grid(_need(args.z, "z")):
            rows.append({"op": "m_inverse", "z": z, "value": m_inverse(law, z)})
    elif args.op == "gamma":
        for a in _grid(_need(args.a, "a")):
            rows.append({"op": "gamma", "a": a, "value": gamma(law, a)})
    elif args.op == "tail":
        for a in _grid(_need(args.a, "a")):
            t = exact_tail(law, args.n, a)
            rows.append({"op": "tail", "n": args.n, "a": a, "value": t,
                         "log_rate": math.log(t) / args.n if t > 0 else -math.inf})
    elif args.op == "summary":
        s = summarize(law, y_grid=_grid(args.y) if args.y else (),
                      z_grid=_grid(args.z) if args.z else (),
                      a_grid=_grid(args.a) if args.a else ())
        if s.p is not None:
            rows.append({"op": "p", "value": s.p, "arg": s.x_star})
            rows.append({"op": "dual", "value": s.dual, "arg": s.y_star})
        rows.extend({"op": "m", "y": y, "value": v} for y, v in s.m_table)
        rows.extend({"op": "m_inverse", "z": z, "value": v}
                    for z, v in s.m_inverse_table)
        rows.extend({"op": "gamma", "a": a, "value": v} for a, v in s.gamma_table)
    _emit(rows, summary, args)
    return EXIT_OK


def _cmd_classify(args) -> int:
    spec = _load_spec(args)
    law = Distribution.load(args.dist)
    report = classify(law, spec, args.depth, args.tol)
    doc = report.to_json()
    _write_json(doc, sys.stdout, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            _write_json(doc, fh, indent=2)
    return EXIT_OK


def _per_replicate(args, draw, measure) -> list[dict]:
    """Rows {"replicate": i, **measure(sample, i)}, one per replicate i of
    the --tree/--dist pair on the tree built once, where `draw(tree, law,
    seed)` (an environment or passage times) makes the sample with the seed
    (--seed, i).  Each draw checks its law; a sample's arrays and the law's
    tables are filled on first read, and threads that fill a table at once
    compute equal arrays."""
    spec = _load_spec(args)
    law = Distribution.load(_need(args.dist, "dist"))
    tree = build_truncation(spec, args.depth)

    def one(i: int) -> dict:
        sample = draw(tree, law, rng.derive(args.seed, i))
        return {"replicate": i, **measure(sample, i)}

    return _replicated(one, args.seeds, args.workers)


def _spread(rows: list[dict], key: str) -> dict:
    vals = np.array([r[key] for r in rows])
    return {"mean": float(vals.mean()), "min": float(vals.min()),
            "max": float(vals.max())}


def _cmd_conductance(args) -> int:
    def measure(env, i: int) -> dict:
        return {"conductance": effective_conductance(
            env.tree, env, ground_depth=args.ground_depth)}

    rows = _per_replicate(args, sample_environment, measure)
    _emit(rows, _spread(rows, "conductance"), args)
    return EXIT_OK


def _cmd_flow(args) -> int:
    def measure(env, i: int) -> dict:
        if args.w is not None:
            return {"flow": weighted_cut_inf(env.tree, env, args.w)}
        return {"flow": capacity_flow(env)}

    rows = _per_replicate(args, sample_environment, measure)
    _emit(rows, _spread(rows, "flow"), args)
    return EXIT_OK


def _cmd_walk(args) -> int:
    if args.escape_depth is not None:
        def escape(env, i: int) -> dict:
            est = escape_probability(env, args.escape_depth, args.trials,
                                     rng.derive(args.seed, i, 1))
            return {"estimate": est.probability, "stderr": est.stderr,
                    "exact": est.exact}

        rows = _per_replicate(args, sample_environment, escape)
        _emit(rows, {"mean_estimate": float(np.mean([r["estimate"] for r in rows]))},
              args)
        return EXIT_OK

    def walk(env, i: int) -> dict:
        w = simulate_walk(env, args.steps, rng.derive(args.seed, i, 1))
        return {"steps_taken": w.steps_taken, "returns_to_root": w.returns_to_root,
                "max_depth": w.max_depth, "exited": w.exited_truncation}

    rows = _per_replicate(args, sample_environment, walk)
    _emit(rows, {"mean_max_depth": float(np.mean([r["max_depth"] for r in rows]))},
          args)
    return EXIT_OK


def _cmd_fpp(args) -> int:
    spec = _load_spec(args)
    law = Distribution.load(args.dist)
    report, replicate = fpp_setup(spec, law, args.depth, args.seeds,
                                  _grid(args.ygrid), seed=args.seed)
    report.profiles = _replicated(replicate, args.seeds, args.workers)
    rows = report.rows()
    summary = {
        "branching": report.branching,
        "predicted_rate": report.predicted_rate,
        "mean_b": float(report.b_values.mean()),
    }
    _emit(rows, summary, args, report.to_json())
    return EXIT_OK


def _cmd_percolate(args) -> int:
    if args.proof:
        def measure(sample, i: int) -> dict:
            if args.proof == "rwre":
                pp = proof_percolation_rwre(sample, args.k, args.y, args.eps)
            else:
                pp = proof_percolation_fpp(sample, args.k, args.y, args.bigm)
            return {"q_hat": pp.q_hat, "stderr": pp.q_hat_stderr,
                    "survived": pp.survived, "edges": pp.n_edges}

        draw = sample_environment if args.proof == "rwre" else sample_passage_times
        rows = _per_replicate(args, draw, measure)
        _emit(rows, {"mean_q_hat": float(np.mean([r["q_hat"] for r in rows]))},
              args)
        return EXIT_OK

    spec = _load_spec(args)
    rows = []
    for q in _grid(args.q):
        row = {"q": q, "depth": args.depth,
               "survival": survival_probability(spec, q, args.depth)}
        if args.trials:
            est, se = survival_monte_carlo(spec, q, args.depth, args.trials,
                                           args.seed)
            row.update({"mc_survival": est, "mc_stderr": se})
        rows.append(row)
    _emit(rows, None, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treelab",
        description="Branching numbers, walk regimes, flows, and first-passage "
                    "percolation on rooted trees.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write results to this path")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="file format for --out")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads for replicates (output unaffected)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tree", help="materialize a truncation and report shape")
    p.add_argument("--tree", required=True, help="spec JSON (or .txt parent list)")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--contract", type=int, help="contract k levels per edge")
    p.add_argument("--branching", action="store_true",
                   help="estimate the branching number")
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--cutset-lambda", type=float,
                   help="report the cutset minimum at this lambda")
    common(p)
    p.set_defaults(fn=_cmd_tree)

    p = sub.add_parser("rate", help="rate functionals of a law")
    p.add_argument("--dist", required=True, help="distribution JSON")
    p.add_argument("--op", default="p",
                   choices=("p", "dual", "m", "minv", "gamma", "tail", "summary"))
    p.add_argument("--y", help="y grid (start:stop:step or comma list)")
    p.add_argument("--z", help="z grid")
    p.add_argument("--a", help="a grid")
    p.add_argument("--n", type=int, default=1, help="tail convolution order")
    common(p)
    p.set_defaults(fn=_cmd_rate)

    p = sub.add_parser("classify", help="walk regime for (tree, law)")
    p.add_argument("--tree", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("conductance", help="effective conductance replicates")
    p.add_argument("--tree", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--ground-depth", type=int, default=None)
    common(p)
    p.set_defaults(fn=_cmd_conductance)

    p = sub.add_parser("flow", help="capacitated max flow replicates")
    p.add_argument("--tree", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--w", type=float, default=None,
                   help="discount for the weighted cut functional")
    common(p)
    p.set_defaults(fn=_cmd_flow)

    p = sub.add_parser("walk", help="simulate walks or escape probabilities")
    p.add_argument("--tree", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--seeds", type=int, default=1,
                   help="number of environments")
    p.add_argument("--escape-depth", type=int, default=None)
    p.add_argument("--trials", type=int, default=500,
                   help="walks per environment for escape estimates")
    common(p)
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("fpp", help="first-passage profiles and predictions")
    p.add_argument("--tree", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--ygrid", required=True)
    common(p)
    p.set_defaults(fn=_cmd_fpp)

    p = sub.add_parser("percolate", help="survival curves and threshold runs")
    p.add_argument("--tree", required=True)
    p.add_argument("--q", default="0.5", help="retention grid")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo trials (0 = exact only)")
    p.add_argument("--proof", choices=("rwre", "fpp"), default=None,
                   help="threshold percolation on the k-contraction")
    p.add_argument("--dist", help="law for --proof runs")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--y", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--bigm", type=float, default=1e9)
    p.add_argument("--seeds", type=int, default=1)
    common(p)
    p.set_defaults(fn=_cmd_percolate)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seeds", 1) < 1:
            raise ValidationError("need at least one seed")
        return args.fn(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError as exc:
        print(f"resource cap: out of memory: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except UnsupportedCaseError as exc:
        print(f"unsupported case: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
