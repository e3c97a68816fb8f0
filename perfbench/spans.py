"""Span tracing of inforank's public functions, installed from outside.

Every public function of the traced modules is looked up by (module, public
name) and replaced, in every inforank module that imported it, by a wrapper
that records a span. A name that no longer exists is skipped and reads as
0 calls. Spans stay in memory; `layer_metrics` reduces them when the run
ends. The CLI runs single-threaded here, so one stack gives the parents.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types

MODULES = ("graphs", "maxent", "entropy", "recon", "centrality", "sampling",
           "clearing", "cli")
# Methods traced besides the module-level functions.
METHODS = (("graphs", "Graph.adjacency"),)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "raised", "iterations")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.raised = False
        self.iterations = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, clock())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
            span.iterations = getattr(result, "iterations", None)
            return result
        return traced

    def install(self) -> None:
        """Wrap every public function of MODULES, plus METHODS.

        A function is named after the module that defines it; one that a
        traced module re-exports from an untraced inforank module is named
        after the traced module.
        """
        traced = {f"inforank.{short}" for short in MODULES}
        found: dict[int, tuple[str, object]] = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"inforank.{short}")
            except ImportError:
                continue
            for attr, fn in vars(mod).items():
                home = getattr(fn, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(fn, type) or not callable(fn)
                        or not home.startswith("inforank")):
                    continue
                if (home == mod.__name__ or home not in traced) and id(fn) not in found:
                    found[id(fn)] = (f"{short}.{attr}", fn)
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "inforank" or name.startswith("inforank."))]
        for name, fn in found.values():
            wrapper = self._wrap(name, fn)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        for short, dotted in METHODS:
            owner_name, _, meth = dotted.rpartition(".")
            owner = getattr(sys.modules.get(f"inforank.{short}"), owner_name, None)
            fn = getattr(owner, meth, None) if owner is not None else None
            if isinstance(fn, types.FunctionType):
                setattr(owner, meth, self._wrap(f"{short}.{dotted}", fn))

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def _total(spans) -> float:
    return sum(s.duration for s in spans)


def _ms_p50(spans) -> float:
    return 1e3 * statistics.median(s.duration for s in spans) if spans else 0.0


def layer_metrics(tr: Tracer, n_nodes: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation. Module self times sum to
    the time spent inside traced spans; what cli.main's caller measured
    beyond that is trace.untraced_s, added by the caller."""
    get = tr.by_name
    cond = get("maxent.solve_conditioned_set")
    # Only outermost draws count, in case one sampler comes to call the other.
    draw_names = ("sampling.sample_graph", "sampling.adjacency_sample")
    draws = [s for s in tr.spans if s.name in draw_names
             and (s.parent is None or s.parent.name not in draw_names)]
    clears = get("clearing.clear")
    clear_iters = [s.iterations for s in clears if s.iterations is not None]
    m = {
        "graphs.load_s": _total(get("graphs.load_edge_list")),
        "graphs.adjacency_calls": len(get("graphs.Graph.adjacency")),
        "graphs.adjacency_s": _total(get("graphs.Graph.adjacency")),
        "graphs.serialize_s": _total(get("graphs.serialize_edge_list")),
        "maxent.bench_solve_s": _total(get("maxent.solve_benchmark")),
        "maxent.cond_solves": len(cond),
        "maxent.cond_solve_s": _total(cond),
        "maxent.cond_solve_ms_p50": _ms_p50(cond),
        "maxent.cond_solve_ms_max": 1e3 * max((s.duration for s in cond), default=0.0),
        "maxent.cond_failures": sum(s.raised for s in cond),
        "maxent.cond_solves_per_node": len(cond) / n_nodes if n_nodes else 0.0,
        "entropy.inforank_self_s": sum(s.self_s for s in get("entropy.inforank")),
        "entropy.benchmark_entropy_calls": len(get("entropy.benchmark_entropy")),
        "entropy.benchmark_entropy_s": _total(get("entropy.benchmark_entropy")),
        "recon.accuracy_report_self_s": sum(s.self_s for s in get("recon.accuracy_report")),
        "recon.expected_accuracy_calls": len(get("recon.expected_accuracy")),
        "centrality.closeness_s": _total(get("centrality.closeness_centrality")),
        "centrality.pagerank_s": _total(get("centrality.pagerank")),
        "sampling.draws": len(draws),
        "sampling.draw_s": _total(draws),
        "sampling.draw_ms_p50": _ms_p50(draws),
        "clearing.clear_calls": len(clears),
        "clearing.clear_s": _total(clears),
        "clearing.clear_iterations_mean":
            statistics.fmean(clear_iters) if clear_iters else 0.0,
        "clearing.risk_self_s": sum(s.self_s for s in get("clearing.risk_error_experiment")),
    }
    for short in MODULES:
        m[f"{short}.self_s"] = sum(s.self_s for s in tr.spans
                                   if s.name.startswith(short + "."))
    return m
