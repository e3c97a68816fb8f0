"""Command-line front end: rank, compare, accuracy, sample, risk.

Every run is reproducible: the seed is recorded in each output artifact and
identical configurations produce byte-identical machine-readable output,
independent of the thread count. Floating-point output carries 12
significant digits. Every command but `sample` writes one artifact, its
payload as JSON or its node table as CSV, to --output or stdout; a node
whose solve failed shows as null (an empty CSV field), and the command
exits 4. `sample` writes its draws to stdout or to --output-dir, which
must not hold sample files of an earlier run. Every text is read and
written as UTF-8, whatever the locale.

Options come from one place: `main` sets each option that no flag set from
the --config file, once, and the commands read `args` alone. The thread
count falls back to $INFORANK_THREADS when neither sets it. `compare` and
`accuracy` correlate over the solved nodes only (recon.solved_pearson), on
one InfoRank rank vector (_inforank_vector). Each command imports the
layers it runs; `generators` loads only for --generate. Loaded before
numpy, this module holds OpenBLAS to one thread unless the caller set
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS (see README).

Exit codes: 0 success, 2 configuration error, 3 parse/input error,
4 solver error.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

if "numpy" not in sys.modules and not os.environ.keys() & {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np

from .errors import (GraphError, InfoRankError, InputError, ParseError,
                     SolverError, UndefinedIndexError)
from .graphs import degree_sequence, load_edge_list
from .maxent import SolverOptions

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_SOLVER = 4

THREADS_ENV = "INFORANK_THREADS"


def _flag(raw: str) -> bool:
    """A config file's true/false/yes/no/1/0, in any case."""
    value = raw.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(raw)
    return value in ("1", "true", "yes")


def _threads(raw: str) -> int:
    """A thread count, which must be >= 1."""
    if int(raw) < 1:
        raise ValueError(raw)
    return int(raw)


# the keys a config file may set, each with the cast of its value
_CONFIG_CASTS = {"directed": _flag, "tolerance": float, "max_iterations": int,
                 "threads": _threads}


def _fmt(x) -> str:
    """A CSV cell or comment value: a float to 12 significant digits, None
    as an empty field."""
    return "" if x is None else f"{x:.12g}" if isinstance(x, float) else str(x)


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


def _json(obj) -> str:
    return json.dumps(_clean(obj), indent=2) + "\n"


def _rows(g, **columns) -> list[dict]:
    """The node table: node, label, then one value per column, in order. A
    NaN marks a node whose solve failed and becomes None."""
    cols = {name: np.asarray(col).tolist() for name, col in columns.items()}
    return [{"node": i, "label": g.label(i),
             **{name: None if math.isnan(col[i]) else col[i]
                for name, col in cols.items()}}
            for i in range(g.n)]


def _write(args, payload: dict, rows: list[dict], comments: list[str]) -> int:
    """Write a command's artifact to --output or stdout: `payload` as JSON,
    or the node table `rows` as CSV under one `# ` line per comment.

    Returns EXIT_SOLVER if a node's solve failed (a None cell), else EXIT_OK.
    """
    if args.format == "json":
        text = _json(payload)
    else:
        buf = io.StringIO()
        buf.writelines(f"# {line}\n" for line in comments)
        cells = [[_fmt(v) for v in row.values()] for row in rows]
        csv.writer(buf).writerows([list(rows[0]), *cells])
        text = buf.getvalue()
    _emit(text, args.output)
    failed = any(v is None for row in rows for v in row.values())
    return EXIT_SOLVER if failed else EXIT_OK


def _emit(text: str, path=None) -> None:
    """Write `text` as UTF-8 to the file `path`, or else to stdout."""
    if path:
        Path(path).write_bytes(text.encode("utf-8"))
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))


def _utf8(data: bytes, name: str, error=ParseError) -> str:
    """`data` decoded as UTF-8; an undecodable byte raises `error`, naming
    `name` and the byte's line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[:exc.start + 1].splitlines())
        raise error(f"{name} line {line}: byte {data[exc.start]:#04x} is not UTF-8") from None


def _load_config_file(path: str) -> dict:
    """The cast values of a key=value config file; an undecodable byte, an
    unknown key or a bad value raises InputError."""
    cfg = {}
    text = _utf8(Path(path).read_bytes(), "config", InputError)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_CASTS:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
        cfg[key] = _cast(key, value.strip(), _CONFIG_CASTS[key])
    return cfg


def _cast(name: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise InputError(f"bad value for {name}: {raw!r}") from None


def _get_graph(args):
    directed = bool(args.directed)
    if args.generate:
        from .generators import from_spec
        return from_spec(args.generate, seed=args.seed, directed=directed)
    if not args.input:
        raise InputError("provide --input FILE or --generate SPEC")
    binary = io.BytesIO(sys.stdin.buffer.read()) if args.input == "-" else open(args.input, "rb")
    with io.TextIOWrapper(binary, encoding="utf-8") as text:  # universal newlines
        try:  # decoded line by line as it is parsed
            return load_edge_list(text, directed=directed)
        except UnicodeDecodeError:  # read again, to name the undecodable byte's line
            binary.seek(0)
            _utf8(binary.read(), "input")


def _solver_options(args) -> SolverOptions:
    """SolverOptions with the values a flag or the config file set; the
    others keep SolverOptions' defaults."""
    return SolverOptions(**{key: getattr(args, key) for key in ("tolerance", "max_iterations")
                            if getattr(args, key) is not None})


def _check_threads(args) -> None:
    """Check --threads, or $INFORANK_THREADS where neither it nor the config
    file sets the count; it has no effect, as every solve runs in one thread."""
    if args.threads is None:
        _cast(THREADS_ENV, os.environ.get(THREADS_ENV, "1"), _threads)
    else:
        _cast("--threads", str(args.threads), _threads)


def _pagerank_alpha(args) -> float:
    """--alpha (default 0.85), checked whether or not PageRank runs, so a
    bad value fails before any solve."""
    alpha = args.alpha if args.alpha is not None else 0.85
    if not 0.0 <= alpha < 1.0:
        raise InputError(f"damping must satisfy 0 <= alpha < 1, got {alpha}")
    return alpha


def _inforank_vector(report):
    """InfoRank as a rank vector. A failed node scores NaN, rescaled too, and
    takes no part in the rescaling."""
    from .centrality import RankVector, rescale
    ok = ~report.failed
    rescaled = np.full(len(ok), np.nan)
    if ok.any():
        rescaled[ok] = rescale(report.I[ok])
    return RankVector(index_name="inforank", scores=report.I, rescaled=rescaled)


def cmd_rank(args) -> int:
    from .entropy import inforank
    g = _get_graph(args)
    report = inforank(g, _solver_options(args))

    scale = 1.0 / math.log(2.0) if args.base2 else 1.0
    unit = "bits" if args.base2 else "nats"
    deg = degree_sequence(g)
    degrees = {"k_out": deg.k_out, "k_in": deg.k_in} if g.directed else {"k": deg.k}
    rows = _rows(g, **degrees, S0_contrib=report.S0_contrib * scale,
                 S_cond=report.S_cond * scale, inforank=report.I)
    payload = {
        "command": "rank", "seed": args.seed, "n": g.n,
        "directed": g.directed, "entropy_unit": unit,
        "S0": report.S0 * scale, "nodes": rows,
        "failed_nodes": np.flatnonzero(report.failed),
    }
    return _write(args, payload, rows,
                  [f"seed={args.seed}", f"S0={_fmt(report.S0 * scale)} {unit}"])


def cmd_compare(args) -> int:
    from .centrality import closeness_centrality, degree_centrality, pagerank
    from .entropy import inforank
    from .recon import solved_pearson
    g = _get_graph(args)
    opts = _solver_options(args)
    alpha = _pagerank_alpha(args)
    measures = {"degree": lambda: degree_centrality(g),
                "closeness": lambda: closeness_centrality(g),
                "pagerank": lambda: pagerank(g, alpha=alpha),
                "inforank": lambda: _inforank_vector(inforank(g, opts))}
    vectors = [make() for name, make in measures.items()
               if args.measure in ("all", name)]

    columns = {f"{v.index_name}{end}": col for v in vectors
               for end, col in (("", v.scores), ("_rescaled", v.rescaled))}
    rows = _rows(g, k_total=degree_sequence(g).total(), **columns)

    correlations = {f"{va.index_name}~{vb.index_name}":
                    solved_pearson(va.rescaled, vb.rescaled)
                    for va, vb in itertools.combinations(vectors, 2)}

    payload = {"command": "compare", "seed": args.seed, "n": g.n,
               "directed": g.directed, "pagerank_alpha": alpha,
               "nodes": rows, "correlations": correlations}
    return _write(args, payload, rows, [f"seed={args.seed}"] + [
        f"corr {key}={_fmt(r)}" for key, r in correlations.items()])


def cmd_accuracy(args) -> int:
    from .centrality import closeness_centrality, degree_centrality, pagerank
    from .entropy import ranking_pass
    from .recon import AccuracyReport, class_accuracy
    g = _get_graph(args)
    opts = _solver_options(args)
    alpha = _pagerank_alpha(args)
    baselines = [degree_centrality(g), closeness_centrality(g),
                 pagerank(g, alpha=alpha)]
    report, bench, (acc,) = ranking_pass(
        g, (lambda i, sol: class_accuracy(sol),), opts)
    rep = AccuracyReport.build(class_accuracy(bench), acc,
                               [*baselines, _inforank_vector(report)])

    rows = _rows(g, accuracy=rep.A)
    payload = {
        "command": "accuracy", "seed": args.seed, "n": g.n, "directed": g.directed,
        "benchmark_accuracy": rep.A_benchmark, "per_node": rows,
        "correlations": rep.correlations, "failed_nodes": np.flatnonzero(rep.failed),
    }
    return _write(args, payload, rows, [
        f"seed={args.seed}", f"benchmark_accuracy={_fmt(rep.A_benchmark)}"] + [
        f"corr accuracy~{name}={_fmt(r)}" for name, r in rep.correlations.items()])


def cmd_sample(args) -> int:
    from .maxent import solve_classes
    from .sampling import SampleSpec, class_samples
    outdir = Path(args.output_dir) if args.output_dir else None
    if outdir is not None and any(outdir.glob("sample_*.edges")):
        raise InputError(f"output directory {outdir} already holds sample_*.edges "
                         "files; write each run to a directory of its own")
    g = _get_graph(args)
    opts = _solver_options(args)
    spec = SampleSpec(count=args.samples, seed=args.seed)
    nodes = None if args.conditioned_on is None else [args.conditioned_on]
    sol = solve_classes(g, nodes, opts)
    labels = np.array([g.label(i) for i in range(g.n)], dtype=object)
    draws = class_samples(sol, [(spec.seed, t) for t in range(spec.count)])

    def sample_text(t: int, tails, heads) -> str:  # a header, then the edges
        lines = (labels[tails] + " " + labels[heads]).tolist()
        return (f"# seed={args.seed} sample={t}\n"
                + ("\n".join(lines) + "\n" if lines else ""))

    if outdir is not None:
        outdir.mkdir(parents=True, exist_ok=True)
        for t, draw in enumerate(draws):
            _emit(sample_text(t, *draw), outdir / f"sample_{t:05d}.edges")
        _emit(f"wrote {spec.count} samples to {outdir}\n")
    else:
        for t, draw in enumerate(draws):
            _emit(sample_text(t, *draw))
    return EXIT_OK


def cmd_risk(args) -> int:
    from .clearing import ExternalsConfig, RiskExperiment, fit_trend
    from .entropy import ranking_pass
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
    comments = [f"seed={args.seed}", f"alpha={args.alpha} beta={args.beta}"]
    for degree, name in ((1, "fit_linear"), (2, "fit_quadratic")):
        try:
            coeffs, rss = fit_trend(report.I[ok], mse[ok], degree=degree)
            fits[name] = {"coefficients_highest_first": list(coeffs), "rss": rss}
            comments.append(f"{name} coeffs={' '.join(map(_fmt, coeffs))} rss={_fmt(rss)}")
        except InputError as exc:
            fits[name] = {"error": str(exc)}
            comments.append(f"{name} error={exc}")

    rows = _rows(g, inforank=report.I, mse=mse)
    payload = {"command": "risk", "seed": args.seed, "n": g.n,
               "alpha": args.alpha, "beta": args.beta,
               "samples_per_node": args.samples,
               "externals": {"mu_a": args.mu_a, "sigma_a": args.sigma_a,
                             "mu_l": args.mu_l, "sigma_l": args.sigma_l},
               "nodes": rows, **fits}
    if args.format == "csv" and args.output:
        _emit(_json({"seed": args.seed, **fits}),
              Path(args.output).with_suffix(".fits.json"))
    return _write(args, payload, rows, comments)


def _add_common(sub, artifact: bool = True):
    sub.add_argument("--input", help="edge-list file path, or - for stdin")
    sub.add_argument("--generate", metavar="SPEC",
                     help="synthetic graph: er:n,p | ba:n,m | star:n | ring:n,k | scalefree:n,m")
    sub.add_argument("--directed", action="store_const", const=True, default=None,
                     help="treat input as directed (generators: er only; "
                          "scalefree is always directed)")
    sub.add_argument("--seed", type=int, default=0, help="random seed (>= 0)")
    sub.add_argument("--tolerance", type=float, default=None,
                     help="solver degree-residual tolerance "
                          f"(default {SolverOptions.tolerance:g})")
    sub.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None,
                     help=f"accepted and checked (>= 1; default ${THREADS_ENV} or 1) "
                          "but has no effect")
    if artifact:
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

    # no prefix matching, so that --output is not taken for --output-dir
    p_smp = subs.add_parser("sample", help="draw graphs from the fitted ensemble",
                            allow_abbrev=False)
    _add_common(p_smp, artifact=False)
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
        if args.config:  # the file sets what no flag set
            for key, value in _load_config_file(args.config).items():
                if getattr(args, key) is None:
                    setattr(args, key, value)
        _check_threads(args)
        if args.seed < 0:
            raise InputError(f"seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (InfoRankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (ParseError, GraphError, OSError)):
            return EXIT_PARSE
        solver = isinstance(exc, (SolverError, UndefinedIndexError))
        return EXIT_SOLVER if solver else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
