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
More inputs reach paths the generated graphs do not:

- `compare` and `accuracy` on directed ER(40, .03) with seed 3, whose 13
  nodes without out-links (5 of them isolated) leave rows of PageRank's
  transition matrix empty;
- `risk` on WEIGHTED, an edge list with weights on every other link;
- `risk` on directed scale-free(30, 2) with the seeds 2^32 + 1 and
  2^64 + 5, which make every sample seed (seed, node, t) four and five
  32-bit entropy words (the seeds 1 and 2 above make three), the latter
  more than SeedSequence's pool of four;
- `rank` and `compare` on star(9), whose conditioned ensembles pin their
  boundary (`maxent._pin_boundary`);
- `rank` on BA(400, 3), whose conditioned systems fill whole stacks of
  `maxent.STACK_ELEMENTS`;
- `rank` with a --config file that sets the tolerance and the iteration
  cap, and with one that sets `directed = yes` on ER(40, .05);
- `rank --input -`, which reads WEIGHTED on stdin (every run gets it
  there; only this one reads it);
- `compare` on ring(10, 2), where every index is constant, so every
  correlation is null;
- `risk` on CYCLE, a directed 3-cycle, where every node has the same index
  and both trend fits fail.

The edge lists and config files are written to OUTDIR.
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
CYCLE = "cycle.edges"
TOL_CONFIG, DIRECTED_CONFIG = "tolerance.cfg", "directed.cfg"
# (case, graph options, commands) of the runs on those inputs
EXTRA = (("er-dir-40", ["--generate", "er:40,0.03", "--directed", "--seed", "3"],
          ("compare", "accuracy")),
         ("weighted-sf-dir-30", ["--input", f"../{WEIGHTED}", "--directed"],
          ("risk",)),
         ("two-word-seed-sf-dir-30",
          ["--generate", "scalefree:30,2", "--seed", str(2**32 + 1)], ("risk",)),
         ("wide-seed-sf-dir-30",
          ["--generate", "scalefree:30,2", "--seed", str(2**64 + 5)], ("risk",)),
         ("star-9", ["--generate", "star:9"], ("rank", "compare")),
         ("ba-400-3", ["--generate", "ba:400,3"], ("rank",)),
         ("config-tolerance-ba-40-3",
          ["--generate", "ba:40,3", "--seed", "1", "--config", f"../{TOL_CONFIG}"],
          ("rank",)),
         ("config-directed-er-40",
          ["--generate", "er:40,0.05", "--config", f"../{DIRECTED_CONFIG}"], ("rank",)),
         ("stdin-weighted", ["--input", "-"], ("rank",)),
         ("ring-10-2", ["--generate", "ring:10,2"], ("compare",)),
         ("cycle-dir-3", ["--input", f"../{CYCLE}", "--directed"], ("risk",)))


def weighted_edges() -> str:
    """Directed scale-free(30, 2) with seed 2 as labelled edge lines; every
    other line has a weight in [0.5, 5) drawn from seed 0."""
    import numpy as np
    from inforank.generators import scale_free_directed
    g = scale_free_directed(30, 2, seed=2)
    w = np.random.default_rng(0).uniform(0.5, 5.0, g.m)
    return "".join(f"b{i} b{j} {w[t]:.3f}\n" if t % 2 else f"b{i} b{j}\n"
                   for t, (i, j) in enumerate(sorted(g.edges)))


def inputs() -> dict[str, str]:
    """The text of each file the runs read, by name."""
    return {WEIGHTED: weighted_edges(), CYCLE: "a b\nb c\nc a\n",
            TOL_CONFIG: "tolerance = 1e-6\nmax_iterations = 400\n",
            DIRECTED_CONFIG: "directed = yes\n"}


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
    files = inputs()
    for name, text in files.items():
        (root / name).write_text(text)
    for case, argv in matrix():
        where = root / case
        where.mkdir(parents=True)
        os.chdir(where)
        # stdin and stdout are byte streams under a UTF-8 text layer, as a
        # process's own are
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        sys.stdin = io.TextIOWrapper(io.BytesIO(files[WEIGHTED].encode()),
                                     encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out.flush()
        (where / "argv").write_text(" ".join(argv) + "\n")
        (where / "exit").write_text(f"{code}\n")
        (where / "stdout").write_bytes(out.buffer.getvalue())
        (where / "stderr").write_text(err.getvalue())
        print(f"{case}: exit {code}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
