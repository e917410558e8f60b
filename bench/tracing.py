"""Outside-in layer tracing: wrap the library's public functions with spans.

No library source is edited.  `Tracer.installed()` rebinds each wrapped
function in every `treelab` module that binds it by name (a `from .trees
import extendable_lineage` makes a second binding that patching `trees` alone
would miss), and restores every binding on exit.  Span stacks are kept per
thread; replicate spans started by `cli._replicated` on worker threads take
the span that called `_replicated` as their parent.  Spans stay in memory
until `layer_metrics` reads them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

# (span name, module, attribute) of every wrapped function.  The span name is
# the function's home module and name; metrics below aggregate spans by it.
WRAPPED = (
    ("trees.build_truncation", "treelab.trees", "build_truncation"),
    ("trees.extendable_lineage", "treelab.trees", "extendable_lineage"),
    ("ratecalc.sample_values", "treelab.ratecalc", "Distribution.sample_values"),
    ("rng.uniforms", "treelab.rng", "uniforms"),
    ("networks.sample_environment", "treelab.networks", "sample_environment"),
    ("fpp.sample_passage_times", "treelab.fpp", "sample_passage_times"),
    ("branching.log_cutset_min", "treelab.branching", "log_cutset_min"),
    ("branching.branching_number", "treelab.branching", "branching_number"),
    ("networks.effective_conductance", "treelab.networks", "effective_conductance"),
    ("fpp.level_profile", "treelab.fpp", "level_profile"),
    ("ratecalc.m_inverse", "treelab.ratecalc", "m_inverse"),
    ("ratecalc.rate_m", "treelab.ratecalc", "rate_m"),
    ("rwre.escape_probability", "treelab.rwre", "escape_probability"),
    ("rwre.transition_probs", "treelab.rwre", "transition_probs"),
    ("rwre.escape_probability_exact", "treelab.rwre", "escape_probability_exact"),
)

ROOT = "cli.main"
REPLICATE = "cli.replicate"


def _vertices(result) -> dict:
    return {"vertices": result.n_vertices}


def _draws(result) -> dict:
    return {"draws": int(result.size)}


# Counts recorded from a wrapped function's result.
COUNTERS = {"trees.build_truncation": _vertices, "ratecalc.sample_values": _draws}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans for one traced invocation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._stack()
        sp = Span(next(self._ids), parent if parent is not None else
                  (stack[-1] if stack else None), name, 0.0)
        stack.append(sp.sid)
        sp.t0 = time.perf_counter()
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counter is not None:
                sp.counts = counter(result)
            return result
        return wrapper

    def _wrap_replicated(self, fn):
        @functools.wraps(fn)
        def replicated(one, count, workers):
            parent = self.current()

            def traced_one(i):
                with self.span(REPLICATE, parent=parent):
                    return one(i)
            return fn(traced_one, count, workers)
        return replicated

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapped function for the duration of the block."""
        patches = []  # (owner, attribute, original)
        try:
            for name, module, attr in WRAPPED:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = sys.modules[module]
                if owner_name:  # a method: patch the class attribute
                    owner = getattr(owner, owner_name)
                    orig = owner.__dict__[fn_name]
                    patches.append((owner, fn_name, orig))
                    setattr(owner, fn_name, self._wrap(name, orig))
                    continue
                orig = getattr(owner, fn_name)
                wrapper = self._wrap(name, orig)
                for site, attr_name in binding_sites(orig):
                    patches.append((site, attr_name, orig))
                    setattr(site, attr_name, wrapper)
            cli = sys.modules["treelab.cli"]
            patches.append((cli, "_replicated", cli._replicated))
            cli._replicated = self._wrap_replicated(cli._replicated)
            yield self
        finally:
            for owner, attr_name, orig in reversed(patches):
                setattr(owner, attr_name, orig)


def binding_sites(obj) -> list[tuple[object, str]]:
    """Every (module, name) in the treelab package that binds `obj`."""
    return [(mod, key)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "treelab"
                                    or mod_name.startswith("treelab."))
            for key, value in list(vars(mod).items()) if value is obj]


# ---------------------------------------------------------------------------
# From spans to layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover.

    Children of one parent may run on several threads at once (replicates
    under --workers 2), so their union is subtracted, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.t0, sp.t1))
    return {sp.sid: (sp.t1 - sp.t0) - _covered(children.get(sp.sid, []))
            for sp in spans}


# Self-time metrics: each span name belongs to exactly one of these, so their
# sum is the sum of all self times (see `layer_metrics`).
SELF_METRICS = {
    "trees.build_s": ("trees.build_truncation",),
    "trees.lineage_s": ("trees.extendable_lineage",),
    "sample.s": ("ratecalc.sample_values",),
    "rng.uniforms_s": ("rng.uniforms",),
    "accum.s": ("networks.sample_environment", "fpp.sample_passage_times"),
    "branching.cutset_s": ("branching.log_cutset_min",),
    "branching.self_s": ("branching.branching_number",),
    "networks.conductance_s": ("networks.effective_conductance",),
    "fpp.profile_s": ("fpp.level_profile",),
    "ratecalc.opt_s": ("ratecalc.m_inverse", "ratecalc.rate_m"),
    "rwre.escape_s": ("rwre.escape_probability",),
    "rwre.kernel_s": ("rwre.transition_probs",),
    "rwre.exact_s": ("rwre.escape_probability_exact",),
    "cli.self_s": (ROOT, REPLICATE),
}

# Counts that must repeat exactly from invocation to invocation on one seed.
DETERMINISTIC_COUNTS = ("trees.vertices", "trees.lineage_calls", "sample.draws",
                        "branching.probes", "rwre.kernel_rows",
                        "ratecalc.rate_m_calls")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (one ROOT span)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    (root,) = by_name[ROOT]
    wall = root.t1 - root.t0

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, key=None):
        return sum((sp.counts.get(key, 0) if key else sp.t1 - sp.t0)
                   for sp in by_name.get(name, ()))

    m = {metric: sum(own[sp.sid] for n in names for sp in by_name.get(n, ()))
         for metric, names in SELF_METRICS.items()}
    unassigned = set(by_name) - {n for names in SELF_METRICS.values() for n in names}
    if unassigned:
        raise RuntimeError(f"spans without a self-time metric: {unassigned}")
    draws = total("ratecalc.sample_values", "draws")
    m.update({
        "trees.vertices": total("trees.build_truncation", "vertices"),
        "trees.lineage_calls": calls("trees.extendable_lineage"),
        "sample.calls": calls("ratecalc.sample_values"),
        "sample.draws": draws,
        # the whole cost of a draw: sampling plus its uniforms
        "sample.ns_per_draw": (total("ratecalc.sample_values") / draws * 1e9
                               if draws else 0.0),
        "branching.probes": calls("branching.log_cutset_min"),
        "branching.total_s": total("branching.branching_number"),
        "networks.conductance_calls": calls("networks.effective_conductance"),
        "ratecalc.rate_m_calls": calls("ratecalc.rate_m"),
        "rwre.kernel_rows": calls("rwre.transition_probs"),
        "cli.replicate_overlap": sum(sp.t1 - sp.t0 for sp in spans
                                     if sp.parent == root.sid) / wall,
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(own.values()),
    })
    return m
