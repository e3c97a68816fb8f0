"""One benchmark invocation in a fresh interpreter.

Usage: python3 child.py REQUEST_JSON

REQUEST_JSON holds argv (for inforank.cli.main), src (the directory that
must provide the inforank package), result (where to write the result
JSON) and trace (bool); a traced run also needs input, directed and
n_nodes for its per-layer metrics.
Times the import of inforank.cli (setup_s), then cli.main (wall_s, cpu_s),
and records the process's peak RSS.
"""
import json
import resource
import sys
import time
from pathlib import Path


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _bench_iterations(input_path: str, directed: bool) -> int:
    """Iterations of the benchmark solve on the input's degree sequence, from
    a side call made after the timed invocation."""
    from inforank import graphs, maxent
    with open(input_path, encoding="utf-8") as fh:
        deg = graphs.degree_sequence(graphs.load_edge_list(fh, directed=directed))
    solve = getattr(maxent, "solve_dbcm" if directed else "solve_ubcm", None)
    if solve is None:
        return 0
    return int(getattr(solve(deg)[0], "iterations", 0))


def main() -> None:
    req = json.loads(sys.argv[1])
    t_import = time.perf_counter()
    import inforank.cli as cli
    setup_s = time.perf_counter() - t_import
    if not Path(cli.__file__).resolve().is_relative_to(Path(req["src"]).resolve()):
        sys.exit(f"inforank imported from {cli.__file__}, not from {req['src']}")

    tracer = None
    if req["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    cpu0 = _cpu()
    w0 = time.perf_counter()
    code = cli.main(req["argv"])
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu() - cpu0
    result = {
        "exit": code, "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer, req["n_nodes"])
        layers["trace.untraced_s"] = wall_s - sum(
            layers[f"{m}.self_s"] for m in spans.MODULES)
        layers["maxent.bench_iterations"] = _bench_iterations(
            req["input"], req["directed"])
        result["layers"] = layers
    Path(req["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
