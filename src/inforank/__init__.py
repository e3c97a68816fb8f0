"""Entropy-based node ranking for binary networks.

Public surface: graph ingestion, degree-constrained maximum-entropy solvers,
the uncertainty-reduction ranking index and its approximations, baseline
centralities, reconstruction accuracy, ensemble sampling, and interbank
clearing experiments. Each name loads from its module, as `_PUBLIC` lists
them, when it is first read (PEP 562), so `import inforank` loads none.
"""
import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "centrality": ("RankVector", "closeness_centrality", "degree_centrality",
                   "pagerank", "rescale"),
    "clearing": ("ClearingProblem", "ExternalsConfig", "PaymentVector",
                 "build_liabilities", "clear", "fit_trend",
                 "risk_error_experiment"),
    "entropy": ("EntropyReport", "approx_meanfield", "approx_sparse",
                "benchmark_entropy", "inforank", "inforank_subset"),
    "errors": ("GraphError", "InfoRankError", "InputError", "ParseError",
               "SolverError", "UndefinedIndexError"),
    "graphs": ("DegreeSeq", "Graph", "degree_sequence", "load_edge_list",
               "make_graph"),
    "maxent": ("FORCED_LIM", "FORCED_OBS", "FREE", "ParamVector", "ProbMatrix",
               "SolverOptions", "solve_benchmark", "solve_dbcm", "solve_ubcm"),
    "recon": ("AccuracyReport", "accuracy_report"),
    "sampling": ("SampleSpec", "sample_ensemble"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name from its module, or one of those modules itself."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_PUBLIC})
