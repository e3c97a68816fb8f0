"""Command-line front end: rank, compare, accuracy, sample, risk.

Every run is reproducible: the seed is recorded in each output artifact and
identical configurations produce byte-identical machine-readable output,
independent of the thread count. Floating-point output carries 12
significant digits.

Exit codes: 0 success, 2 configuration error, 3 parse/input error,
4 solver error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .centrality import (RankVector, closeness_centrality, degree_centrality,
                         pagerank, rescale)
from .clearing import ExternalsConfig, RiskExperiment, fit_trend
from .entropy import inforank, ranking_pass
from .errors import (GraphError, InfoRankError, InputError, ParseError,
                     SolverError, UndefinedCorrelationError, UndefinedIndexError)
from .generators import from_spec
from .graphs import degree_sequence, load_edge_list, serialize_edge_list
from .maxent import SolverOptions, solve_benchmark, solve_conditioned_set
from .recon import AccuracyReport, expected_accuracy, pearson
from .sampling import SampleSpec, sample_ensemble

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_SOLVER = 4

THREADS_ENV = "INFORANK_THREADS"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _clean(obj):
    """Round floats to 12 significant digits and map NaN to null, recursively."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if math.isnan(v) else float(_fmt(v))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def _write_json(payload: dict, output: str | None) -> None:
    text = json.dumps(_clean(payload), indent=2) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows: list[dict], header_comments: list[str], output: str | None) -> None:
    buf = io.StringIO()
    for line in header_comments:
        buf.write(f"# {line}\n")
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (_fmt(v) if isinstance(v, float) else
                                 "" if v is None else v)
                             for k, v in row.items()})
    if output:
        Path(output).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _load_config_file(path: str) -> dict[str, str]:
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _cast(name: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise InputError(f"bad value for {name}: {raw!r}") from None


def _resolve(args, key, cast, default):
    """Flag > config file > default (env handled separately for threads)."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if args.config_values and key in args.config_values:
        return _cast(key, args.config_values[key], cast)
    return default


def _get_graph(args):
    directed = bool(_resolve(args, "directed", lambda s: s.lower() in ("1", "true", "yes"), False))
    if args.generate:
        g = from_spec(args.generate, seed=args.seed, directed=directed)
    elif args.input:
        if args.input == "-":
            g = load_edge_list(sys.stdin, directed=directed)
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                g = load_edge_list(fh, directed=directed)
    else:
        raise InputError("provide --input FILE or --generate SPEC")
    return g


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        tolerance=_resolve(args, "tolerance", float, 1e-10),
        max_iterations=int(_resolve(args, "max_iterations", int, 100_000)),
    )


def _check_threads(args) -> None:
    """Validate the thread count: flag > config file > $INFORANK_THREADS > 1;
    below 1 is an error. It has no effect: the conditioned solves run as
    stacked array operations in one thread."""
    threads = _resolve(args, "threads", int, None)
    if threads is None:
        threads = _cast(THREADS_ENV, os.environ.get(THREADS_ENV, "1"), int)
    if threads < 1:
        raise InputError(f"thread count must be >= 1, got {threads}")


def _inforank_vector(report) -> RankVector:
    return RankVector(index_name="inforank",
                      scores=np.where(report.failed, np.nan, report.I),
                      rescaled=rescale(np.where(report.failed, 0.0, report.I)))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_rank(args) -> int:
    g = _get_graph(args)
    opts = _solver_options(args)
    report = inforank(g, opts)

    scale = 1.0 / math.log(2.0) if args.base2 else 1.0
    unit = "bits" if args.base2 else "nats"
    rows = report.to_rows()
    for row in rows:
        row["S0_contrib"] = row["S0_contrib"] * scale
        if row["S_cond"] is not None:
            row["S_cond"] = row["S_cond"] * scale

    if args.format == "json":
        payload = {
            "command": "rank", "seed": args.seed, "n": report.n,
            "directed": report.directed, "entropy_unit": unit,
            "S0": report.S0 * scale, "nodes": rows,
            "failed_nodes": [int(i) for i in np.flatnonzero(report.failed)],
        }
        _write_json(payload, args.output)
    else:
        _write_csv(rows, [f"seed={args.seed}", f"S0={_fmt(report.S0 * scale)} {unit}"],
                   args.output)
    return EXIT_SOLVER if report.failed.any() else EXIT_OK


def cmd_compare(args) -> int:
    g = _get_graph(args)
    opts = _solver_options(args)
    alpha = args.alpha if args.alpha is not None else 0.85

    # the baselines come first, so a bad alpha fails before any solve
    measures = {"degree": lambda: degree_centrality(g),
                "closeness": lambda: closeness_centrality(g),
                "pagerank": lambda: pagerank(g, alpha=alpha),
                "inforank": lambda: _inforank_vector(inforank(g, opts))}
    measure = args.measure or "all"
    vectors = [make() for name, make in measures.items()
               if measure in ("all", name)]

    deg = degree_sequence(g)
    k_tot = deg.total()
    rows = []
    for i in range(g.n):
        row = {"node": i, "label": g.label(i), "k_total": int(k_tot[i])}
        for v in vectors:
            row[v.index_name] = float(v.scores[i])
            row[f"{v.index_name}_rescaled"] = float(v.rescaled[i])
        rows.append(row)

    correlations = {}
    for a_idx in range(len(vectors)):
        for b_idx in range(a_idx + 1, len(vectors)):
            va, vb = vectors[a_idx], vectors[b_idx]
            key = f"{va.index_name}~{vb.index_name}"
            try:
                correlations[key] = pearson(va.rescaled, vb.rescaled)
            except UndefinedCorrelationError:
                correlations[key] = None

    if args.format == "json":
        _write_json({"command": "compare", "seed": args.seed, "n": g.n,
                     "directed": g.directed, "pagerank_alpha": alpha,
                     "nodes": rows, "correlations": correlations}, args.output)
    else:
        comments = [f"seed={args.seed}"] + [
            f"corr {key}={'' if r is None else _fmt(r)}" for key, r in correlations.items()]
        _write_csv(rows, comments, args.output)
    return EXIT_OK


def cmd_accuracy(args) -> int:
    g = _get_graph(args)
    opts = _solver_options(args)
    alpha = args.alpha if args.alpha is not None else 0.85
    # made before the pass, so a bad alpha fails before any solve
    baselines = [degree_centrality(g), closeness_centrality(g),
                 pagerank(g, alpha=alpha)]
    report, bench, (acc,) = ranking_pass(
        g, (lambda i, pm: expected_accuracy(pm, g),), opts)
    rep = AccuracyReport.build(expected_accuracy(bench, g), acc,
                               [*baselines, _inforank_vector(report)])

    per_node = [{"node": i, "label": g.label(i),
                 "accuracy": None if rep.failed[i] else float(rep.A[i])}
                for i in range(g.n)]
    payload = {
        "command": "accuracy", "seed": args.seed, "n": g.n,
        "directed": g.directed,
        "benchmark_accuracy": rep.A_benchmark,
        "per_node": per_node,
        "correlations": rep.correlations,
        "failed_nodes": [int(i) for i in np.flatnonzero(rep.failed)],
    }
    if args.format == "json":
        _write_json(payload, args.output)
    else:
        comments = [f"seed={args.seed}",
                    f"benchmark_accuracy={_fmt(rep.A_benchmark)}"] + [
            f"corr accuracy~{name}={'' if r is None else _fmt(r)}"
            for name, r in rep.correlations.items()]
        _write_csv(per_node, comments, args.output)
    return EXIT_SOLVER if rep.failed.any() else EXIT_OK


def cmd_sample(args) -> int:
    g = _get_graph(args)
    opts = _solver_options(args)
    if args.conditioned_on is not None:
        pm = solve_conditioned_set(g, [args.conditioned_on], opts)
    else:
        pm = solve_benchmark(g, opts)

    spec = SampleSpec(count=args.samples, seed=args.seed)
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for t, sample in enumerate(sample_ensemble(pm, spec, g.labels)):
            path = outdir / f"sample_{t:05d}.edges"
            path.write_text(f"# seed={args.seed} sample={t}\n"
                            + (serialize_edge_list(sample) if sample.m else ""))
        sys.stdout.write(f"wrote {spec.count} samples to {outdir}\n")
    else:
        for t, sample in enumerate(sample_ensemble(pm, spec, g.labels)):
            sys.stdout.write(f"# seed={args.seed} sample={t}\n")
            if sample.m:
                sys.stdout.write(serialize_edge_list(sample))
    return EXIT_OK


def cmd_risk(args) -> int:
    g = _get_graph(args)
    if not g.directed:
        raise InputError("the risk experiment needs a directed network")
    opts = _solver_options(args)
    experiment = RiskExperiment(
        g, samples_per_node=args.samples,
        externals=ExternalsConfig(mu_a=args.mu_a, sigma_a=args.sigma_a,
                                  mu_l=args.mu_l, sigma_l=args.sigma_l),
        alpha=args.alpha, beta=args.beta, seed=args.seed)
    report, _, (mse,) = ranking_pass(g, (experiment,), opts)

    ok = ~report.failed  # one solve per node feeds both the index and the error
    fits = {}
    for degree, name in ((1, "fit_linear"), (2, "fit_quadratic")):
        try:
            coeffs, rss = fit_trend(report.I[ok], mse[ok], degree=degree)
            fits[name] = {"coefficients_highest_first": list(coeffs), "rss": rss}
        except InputError as exc:
            fits[name] = {"error": str(exc)}

    rows = [{"node": i, "label": g.label(i),
             "inforank": None if report.failed[i] else float(report.I[i]),
             "mse": None if report.failed[i] else float(mse[i])}
            for i in range(g.n)]
    if args.format == "json":
        _write_json({"command": "risk", "seed": args.seed, "n": g.n,
                     "alpha": args.alpha, "beta": args.beta,
                     "samples_per_node": args.samples,
                     "externals": {"mu_a": args.mu_a, "sigma_a": args.sigma_a,
                                   "mu_l": args.mu_l, "sigma_l": args.sigma_l},
                     "nodes": rows, **fits}, args.output)
    else:
        comments = [f"seed={args.seed}", f"alpha={args.alpha} beta={args.beta}"]
        for name, fit in fits.items():
            if "coefficients_highest_first" in fit:
                coeffs = " ".join(_fmt(c) for c in fit["coefficients_highest_first"])
                comments.append(f"{name} coeffs={coeffs} rss={_fmt(fit['rss'])}")
            else:
                comments.append(f"{name} error={fit['error']}")
        _write_csv(rows, comments, args.output)
        if args.output:
            fit_path = Path(args.output).with_suffix(".fits.json")
            fit_path.write_text(json.dumps(_clean({"seed": args.seed, **fits}),
                                           indent=2) + "\n")
    return EXIT_SOLVER if report.failed.any() else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--input", help="edge-list file path, or - for stdin")
    sub.add_argument("--generate", metavar="SPEC",
                     help="synthetic graph: er:n,p | ba:n,m | star:n | ring:n,k | scalefree:n,m")
    sub.add_argument("--directed", action="store_const", const=True, default=None,
                     help="treat input as directed (generators: er only; "
                          "scalefree is always directed)")
    sub.add_argument("--seed", type=int, default=0, help="random seed (>= 0)")
    sub.add_argument("--tolerance", type=float, default=None,
                     help="solver degree-residual tolerance (default 1e-10)")
    sub.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None,
                     help=f"accepted and checked (>= 1; default ${THREADS_ENV} or 1) "
                          "but has no effect")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--output", help="output file (default stdout)")
    sub.add_argument("--config", help="key=value config file (flags take precedence)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inforank",
        description="Entropy-based node ranking and downstream experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    p_rank = subs.add_parser("rank", help="rank nodes by uncertainty reduction")
    _add_common(p_rank)
    p_rank.add_argument("--base2", action="store_true",
                        help="display entropies in bits (index values unchanged)")
    p_rank.set_defaults(func=cmd_rank)

    p_cmp = subs.add_parser("compare", help="compute all ranking indices side by side")
    _add_common(p_cmp)
    p_cmp.add_argument("--measure", choices=("degree", "closeness", "pagerank",
                                             "inforank", "all"), default="all")
    p_cmp.add_argument("--alpha", type=float, default=None,
                       help="PageRank damping (default 0.85)")
    p_cmp.set_defaults(func=cmd_compare)

    p_acc = subs.add_parser("accuracy", help="reconstruction accuracy per node + correlations")
    _add_common(p_acc)
    p_acc.add_argument("--alpha", type=float, default=None,
                       help="PageRank damping (default 0.85)")
    p_acc.set_defaults(func=cmd_accuracy)

    p_smp = subs.add_parser("sample", help="draw graphs from the fitted ensemble")
    _add_common(p_smp)
    p_smp.add_argument("--samples", type=int, default=1)
    p_smp.add_argument("--conditioned-on", dest="conditioned_on", type=int, default=None,
                       help="sample the ensemble conditioned on this node")
    p_smp.add_argument("--output-dir", dest="output_dir",
                       help="write numbered edge-list files here")
    p_smp.set_defaults(func=cmd_sample)

    p_risk = subs.add_parser("risk", help="clearing-error vs ranking experiment")
    _add_common(p_risk)
    p_risk.add_argument("--samples", type=int, default=100)
    p_risk.add_argument("--alpha", type=float, default=0.9,
                        help="recovery rate on external assets under insolvency")
    p_risk.add_argument("--beta", type=float, default=0.9,
                        help="recovery rate on interbank receipts under insolvency")
    p_risk.add_argument("--mu-a", dest="mu_a", type=float, default=10.0)
    p_risk.add_argument("--sigma-a", dest="sigma_a", type=float, default=0.1)
    p_risk.add_argument("--mu-l", dest="mu_l", type=float, default=1.0)
    p_risk.add_argument("--sigma-l", dest="sigma_l", type=float, default=0.1)
    p_risk.set_defaults(func=cmd_risk)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = _load_config_file(args.config) if args.config else {}
        _check_threads(args)
        if args.seed < 0:
            raise InputError(f"seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ParseError, GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SolverError, UndefinedIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (InputError, UndefinedCorrelationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfoRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
