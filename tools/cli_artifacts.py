#!/usr/bin/env python3
"""Write every artifact of a fixed matrix of CLI runs, for a byte-level diff.

Usage:

    python3 tools/cli_artifacts.py SRC OUTDIR

SRC is the directory that holds the `inforank` package (a checkout's `src`).
Each run of the matrix calls `inforank.cli.main` from SRC, in its own
subdirectory of OUTDIR, and writes there its argv, exit code, stdout,
stderr and every file it made; output paths are relative, so no artifact
names OUTDIR. Two trees give the same artifacts exactly when

    diff -r OUTDIR_A OUTDIR_B

prints nothing.

The matrix: BA(40, 3) with seed 1 and directed scale-free(30, 2) with seed
2, each with default options and capped at its benchmark solve's own
iteration count (so that some conditioned solves fail); `rank`, `compare`,
`accuracy` and `risk` (which rejects the undirected graph), each as JSON
and as CSV, to stdout and to --output; and `sample` to stdout and to
--output-dir, plain and conditioned on node 0. Two larger `sample` runs,
BA(400, 3) plain and directed scale-free(300, 2) conditioned on node 0,
draw more entries than one row block of `sampling.BLOCK_ELEMENTS` holds.
Four more inputs reach paths the generated graphs do not: `compare` and
`accuracy` on directed ER(40, .03) with seed 3, whose 13 nodes without
out-links (5 of them isolated) leave rows of PageRank's transition matrix
empty; `risk` on WEIGHTED, an edge list with weights on every other
link, written to OUTDIR; and `risk` on directed scale-free(30, 2) with the
seeds 2^32 + 1 and 2^64 + 5, which make every sample seed (seed, node, t)
four and five 32-bit entropy words (the seeds 1 and 2 above make three),
the latter more than SeedSequence's pool of four.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

GRAPHS = (("ba-40-3", "ba:40,3", 1), ("sf-dir-30-2", "scalefree:30,2", 2))
COMMANDS = ("rank", "compare", "accuracy", "risk")
# (case, spec, seed, extra options) of the sample runs of several row blocks
BLOCK_SAMPLES = (("ba-400-3_sample", "ba:400,3", 1, []),
                 ("sf-dir-300-2_sample_cond", "scalefree:300,2", 2,
                  ["--conditioned-on", "0"]))
WEIGHTED = "weighted.edges"
# (case, graph options, commands) of the runs on those four inputs
EXTRA = (("er-dir-40", ["--generate", "er:40,0.03", "--directed", "--seed", "3"],
          ("compare", "accuracy")),
         ("weighted-sf-dir-30", ["--input", f"../{WEIGHTED}", "--directed"],
          ("risk",)),
         ("two-word-seed-sf-dir-30",
          ["--generate", "scalefree:30,2", "--seed", str(2**32 + 1)], ("risk",)),
         ("wide-seed-sf-dir-30",
          ["--generate", "scalefree:30,2", "--seed", str(2**64 + 5)], ("risk",)))


def weighted_edges() -> str:
    """Directed scale-free(30, 2) with seed 2 as labelled edge lines; every
    other line has a weight in [0.5, 5) drawn from seed 0."""
    import numpy as np
    from inforank.generators import scale_free_directed
    g = scale_free_directed(30, 2, seed=2)
    w = np.random.default_rng(0).uniform(0.5, 5.0, g.m)
    return "".join(f"b{i} b{j} {w[t]:.3f}\n" if t % 2 else f"b{i} b{j}\n"
                   for t, (i, j) in enumerate(sorted(g.edges)))


def benchmark_iterations(spec: str, seed: int) -> int:
    from inforank import maxent
    from inforank.generators import from_spec
    from inforank.graphs import degree_sequence
    g = from_spec(spec, seed=seed)
    solve = maxent.solve_dbcm if g.directed else maxent.solve_ubcm
    return solve(degree_sequence(g))[0].iterations


def matrix():
    """(case name, argv) of every run."""
    for name, spec, seed in GRAPHS:
        graph = ["--generate", spec, "--seed", str(seed)]
        cap = ["--max-iterations", str(benchmark_iterations(spec, seed))]
        for options, extra in (("default", []), ("capped", cap)):
            for command in COMMANDS:
                for fmt in ("json", "csv"):
                    argv = [command, *graph, *extra, "--format", fmt]
                    case = f"{name}_{options}_{command}_{fmt}"
                    yield f"{case}_stdout", argv
                    yield f"{case}_file", argv + ["--output", f"out.{fmt}"]
        for conditioned in ([], ["--conditioned-on", "0"]):
            argv = ["sample", *graph, "--samples", "3", *conditioned]
            case = f"{name}_sample{'_cond' if conditioned else ''}"
            yield f"{case}_stdout", argv
            yield f"{case}_dir", argv + ["--output-dir", "samples"]
    for name, graph, commands in EXTRA:
        for command in commands:
            for fmt in ("json", "csv"):
                argv = [command, *graph, "--format", fmt]
                yield f"{name}_{command}_{fmt}_stdout", argv
                yield f"{name}_{command}_{fmt}_file", argv + ["--output", f"out.{fmt}"]
    for case, spec, seed, extra in BLOCK_SAMPLES:
        argv = ["sample", "--generate", spec, "--seed", str(seed),
                "--samples", "3", *extra]
        yield f"{case}_stdout", argv
        yield f"{case}_dir", argv + ["--output-dir", "samples"]


def main(src: str, outdir: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    import inforank.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"inforank imported from {cli.__file__}, not from {src}")
    root = Path(outdir).resolve()
    root.mkdir(parents=True, exist_ok=True)
    (root / WEIGHTED).write_text(weighted_edges())
    for case, argv in matrix():
        where = root / case
        where.mkdir(parents=True)
        os.chdir(where)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        (where / "argv").write_text(" ".join(argv) + "\n")
        (where / "exit").write_text(f"{code}\n")
        (where / "stdout").write_text(out.getvalue())
        (where / "stderr").write_text(err.getvalue())
        print(f"{case}: exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
