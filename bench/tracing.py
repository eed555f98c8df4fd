"""Per-layer tracing for the separate traced run.

The tracer wraps, from outside, every public function of each geneograph
module wherever it is looked up: in the defining module and in every module
that imported it by name (``geneograph.cli.all_orbits`` is the same object as
``geneograph.permutant.all_orbits`` until both are replaced).  Most wrappers
record a span (name, start, end, parent, request); hot inner functions only
count their calls, because a span per call would cost more than the call.
Spans stay in memory and are written out once, after the run.

A layer's self time is the duration of its spans minus the time their child
spans cover; time in a counted-only function is self time of its caller.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "io", "perm", "graph", "perception", "permutant", "geneo", "linalg", "experiments")

# hot inner functions (and per-value converters) that are counted, not spanned
COUNT_ONLY = {
    "permutant.alpha_action", "geneo.apply", "perm.compose", "perception.measurement",
    "perception.as_fraction", "io.mapping_to_json", "io.fraction_to_json",
}
COUNTED_METHODS = {
    ("perm", "Permutation", "inverse"): "perm.inverse",
    ("perception", "Measurement", "pullback"): "perception.pullback",
}
SPANNED_METHODS = {
    ("perm", "Homomorphism", "__post_init__"): "perm.homomorphism_verify",
    ("permutant", "GeneralizedPermutant", "__post_init__"): "permutant.permutant_init",
}
# perm.inverse(p) only calls p.inverse(), which is counted under the same name
SKIP = {"perm.inverse"}

SECONDS = (
    "cli.build_parser", "io.context_from_json", "io.operator_from_json", "io.operator_to_json",
    "perm.generate_group", "perm.homomorphism_verify", "graph.vertex_automorphism_group",
    "graph.edge_automorphism_group", "graph.subgraph_isomorphism_classes", "permutant.all_orbits",
    "permutant.orbit", "permutant.is_generalized_permutant", "permutant.is_permutant_measure",
    "permutant.permutant_init", "geneo.verify_equivariance", "geneo.from_permutant",
    "geneo.from_measure", "geneo.decompose_to_measure", "linalg.rref", "linalg.simplex_min",
    "experiments.build_code_table", "experiments.analyze_code_table", "experiments.cycle_census",
)
CALLS = (
    "io.mapping_to_json", "perm.generate_group", "perm.compose", "perm.inverse",
    "perception.measurement", "perception.pullback", "permutant.orbit", "permutant.alpha_action",
    "geneo.verify_equivariance", "geneo.apply", "linalg.rref", "linalg.simplex_min",
)
COMBINATORS = ("geneo.convex_combination", "geneo.compose_operators", "geneo.pointwise_min", "geneo.pointwise_max")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count"), (f"{layer}.raised", "count")]
    out += [(f"{name}.s", "s") for name in SECONDS]
    out += [(f"{name}.calls", "count") for name in CALLS]
    out += [
        ("geneo.combinators.s", "s"),
        ("permutant.maps_partitioned", "count"),
        ("permutant.alpha_useful_ratio", "ratio"),
        ("linalg.lp_cells", "count"),
        ("unattributed_s", "s"),
        ("tracing_overhead_ratio", "ratio"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, request), in end order
        self.stack: list[int] = []
        self.next_id = 0
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.work: Counter = Counter()
        self.request = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _counter(self, fn, name):
        calls, raised = self.calls, self.raised

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise

        return counted

    def _spanner(self, fn, name, post=None):
        tracer, calls, raised, stack, spans = self, self.calls, self.raised, self.stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer.request))
            if post is not None:
                post(args, result)
            return result

        return spanned

    def _posts(self):
        work = self.work

        def all_orbits(args, result):
            work["maps_partitioned"] += sum(o.size for o in result[0])

        def orbit(args, result):
            work["orbit_new_members"] += result.size - 1

        def simplex(args, result):
            work["lp_cells"] += len(args[1]) * len(args[0])

        return {"permutant.all_orbits": all_orbits, "permutant.orbit": orbit, "linalg.simplex_min": simplex}

    # -- installation -----------------------------------------------------------

    def _replace(self, holder, attr, new):
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, new)

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "geneograph" or n.startswith("geneograph.")]
        posts = self._posts()
        for layer in LAYERS:
            module = sys.modules[f"geneograph.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if name in SKIP:
                    continue
                if name in COUNT_ONLY:
                    wrapper = self._counter(fn, name)
                else:
                    wrapper = self._spanner(fn, name, posts.get(name))
                for holder in package:
                    for held, obj in list(vars(holder).items()):
                        if obj is fn:
                            self._replace(holder, held, wrapper)
        for (layer, cls_name, meth), name in {**COUNTED_METHODS, **SPANNED_METHODS}.items():
            cls = getattr(sys.modules[f"geneograph.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            wrap = self._counter if (layer, cls_name, meth) in COUNTED_METHODS else self._spanner
            self._replace(cls, meth, wrap(fn, name))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    # -- reporting ----------------------------------------------------------------

    def metrics(self, request_seconds: float, untraced_rps: float, traced_rps: float) -> dict[str, float]:
        by_id = {s[0]: s for s in self.spans}
        child = Counter()
        for sid, name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        inclusive = Counter()
        root_s = 0.0
        for sid, name, start, end, parent, _ in self.spans:
            duration = end - start
            self_s[name.split(".", 1)[0]] += duration - child[sid]
            if parent < 0:
                root_s += duration
            # count a name's time only at its outermost span, so recursion is not doubled
            p = parent
            while p >= 0 and by_id[p][1] != name:
                p = by_id[p][4]
            if p < 0:
                inclusive[name] += duration
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = sum(c for n, c in self.calls.items() if n.split(".", 1)[0] == layer)
            out[f"{layer}.raised"] = sum(c for n, c in self.raised.items() if n.split(".", 1)[0] == layer)
        for name in SECONDS:
            out[f"{name}.s"] = inclusive[name]
        for name in CALLS:
            out[f"{name}.calls"] = self.calls[name]
        out["geneo.combinators.s"] = sum(inclusive[n] for n in COMBINATORS)
        out["permutant.maps_partitioned"] = self.work["maps_partitioned"]
        alpha = self.calls["permutant.alpha_action"]
        out["permutant.alpha_useful_ratio"] = self.work["orbit_new_members"] / alpha if alpha else 0.0
        out["linalg.lp_cells"] = self.work["lp_cells"]
        out["unattributed_s"] = request_seconds - root_s
        out["tracing_overhead_ratio"] = (untraced_rps - traced_rps) / untraced_rps
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, ordered by start time."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, name, start, end, parent, request in sorted(self.spans, key=lambda s: s[2]):
                fh.write(json.dumps([sid, name, start, end, parent, request]) + "\n")
