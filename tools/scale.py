#!/usr/bin/env python3
"""Time `inforank()` and the risk experiment against n, one fresh
interpreter per point.

Usage:

    python3 tools/scale.py --change SRC [--base SRC] [--rounds R]
        [--ba 200,400,800,1600] [--sf 200,400,800] [--star 500,1000,2000]
        [--hub 300,600] [--risk 60,120,240,300] [--sample 600,1200,2400]
        [--compare 800,1600,3200] [--stack-elements 8192,65536]
        [--blas default,1] [--imports R] [--seed 1] > scale.json

SRC is the directory that holds the `inforank` package (a checkout's
`src`). Each point is BA(n, 3) (`--ba`), directed scale-free(n, 2)
(`--sf`), star(n) (`--star`) or ER(n, 3/n) plus node 0 linked to all
others (`--hub`), from that tree's own generators with `--seed`, ranked by
`inforank()` with default options in a new `python3` process (star and
hub graphs pin the boundary of every conditioned system, but node 0's in
the hub graph), or directed scale-free(n, 2) run through
`risk_error_experiment()` with 100 samples per node and its other
defaults (`--risk`), or the CLI's `sample --generate ba:N,3 --samples
100 --seed SEED --output-dir DIR` through `inforank.cli.main`
(`--sample`), or `compare --generate ba:N,3 --seed SEED --output FILE`
there (`--compare`), so that every tree runs the command through its own
code. With none of the seven options, the BA and scale-free defaults
shown above run. The child reports the wall time of the `inforank()`,
`risk_error_experiment()` or `main()` call, the minor page faults it took
(`ru_minflt` after minus before), the process's peak RSS (`ru_maxrss`),
its OS thread count after its imports (None off Linux) and a sha256 of
S0, S_cond, S0_contrib, I and the failed flags, of the risk experiment's
mse, or of the names and bytes of the files `main` wrote, in name order.
With `--stack-elements`, the child sets `maxent.STACK_ELEMENTS` to each
value in turn before the call.

`--blas` runs every point under each BLAS setting in turn: `default`
unsets OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS, and a
count N sets OPENBLAS_NUM_THREADS=N (default: `default` alone). The child
imports numpy before inforank, so `default` is OpenBLAS's own count, one
thread per core, on every tree and axis: the CLI's one-thread default
applies only where it is imported first.

Every round runs every point on each tree; the tree that runs first
alternates from round to round. The JSON on stdout holds the machine, every
point, and per (model, n, stack elements, BLAS setting) the median of each
side, the change/base ratio of the medians and whether every run of both
trees gave the same hash. Per model, stack elements and BLAS setting with
two sizes or more, it also holds each side's fitted exponent: the
least-squares slope of log(median wall_s) against log(n), so that the wall
time grows as n^exponent.

`--imports R` adds the import axis: each CLI command (`rank`, `compare`,
`accuracy`, `sample`, `risk`) runs with `--input` on one fixed edge list,
directed ER(60, .08) from numpy seed `--seed`, in R fresh interpreters per
tree with PYTHONDONTWRITEBYTECODE=1, so that every run compiles the modules
it loads; the tree that runs first alternates from round to round. Per
command and tree, "imports" holds the median time of `import inforank.cli`,
the median time of `main`, the exit codes and the `inforank.*` modules
loaded after `main`. Progress goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = r"""
import hashlib, json, os, pathlib, resource, sys, tempfile, time
src, model, n, seed, stack = sys.argv[1:]
sys.path.insert(0, src)
import numpy as np
from inforank import inforank, maxent, risk_error_experiment
from inforank.cli import main
from inforank.generators import (barabasi_albert, erdos_renyi,
                                  scale_free_directed, star)
from inforank.graphs import make_graph
if not maxent.__file__.startswith(src):
    sys.exit(f"inforank imported from {maxent.__file__}, not from {src}")
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
if stack != "default":
    maxent.STACK_ELEMENTS = int(stack)
if model == "star":
    g = star(int(n))
elif model == "hub":
    g = erdos_renyi(int(n), 3 / int(n), seed=int(seed))
    g = make_graph(g.n, g.edges | {(0, j) for j in range(1, g.n)})
elif model in ("sample", "compare"):
    out = tempfile.TemporaryDirectory()
else:
    make = barabasi_albert if model == "ba" else scale_free_directed
    g = make(int(n), 3 if model == "ba" else 2, seed=int(seed))
before = resource.getrusage(resource.RUSAGE_SELF)
t0 = time.perf_counter()
if model == "risk":
    r = risk_error_experiment(g, samples_per_node=100)
elif model == "sample":
    if main(["sample", "--generate", f"ba:{n},3", "--samples", "100",
             "--seed", seed, "--output-dir", out.name]):
        sys.exit("sample failed")
elif model == "compare":
    if main(["compare", "--generate", f"ba:{n},3", "--seed", seed,
             "--output", f"{out.name}/compare.json"]):
        sys.exit("compare failed")
else:
    r = inforank(g)
wall = time.perf_counter() - t0
after = resource.getrusage(resource.RUSAGE_SELF)
h = hashlib.sha256()
if model in ("sample", "compare"):
    for f in sorted(pathlib.Path(out.name).iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    out.cleanup()
else:
    for a in ((r.mse,) if model == "risk" else
              (r.S0, r.S_cond, r.S0_contrib, r.I, r.failed)):
        h.update(np.ascontiguousarray(a).tobytes())
print(json.dumps({"wall_s": round(wall, 4),
                  "minflt": after.ru_minflt - before.ru_minflt,
                  "maxrss_mb": round(after.ru_maxrss / 1024, 1),
                  "stack_elements": maxent.STACK_ELEMENTS,
                  "threads": threads, "sha256": h.hexdigest()}))
"""


IMPORT_CHILD = r"""
import json, sys, tempfile, time
src, edges, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path.insert(0, src)
t0 = time.perf_counter()
import inforank.cli as cli
t1 = time.perf_counter()
if not cli.__file__.startswith(src):
    sys.exit(f"inforank imported from {cli.__file__}, not from {src}")
with tempfile.TemporaryDirectory() as out:
    output = ["--output-dir", f"{out}/samples"] if argv[0] == "sample" else [
        "--output", f"{out}/artifact"]
    code = cli.main([*argv, "--input", edges, *output])
    t2 = time.perf_counter()
print(json.dumps({"import_s": round(t1 - t0, 5), "main_s": round(t2 - t1, 5),
                  "exit": code, "modules": sorted(
                      m for m in sys.modules if m.startswith("inforank."))}))
"""

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# each command of the import axis, with its options but --input and output
IMPORT_COMMANDS = {"rank": ["rank"], "compare": ["compare"],
                   "accuracy": ["accuracy"],
                   "sample": ["sample", "--samples", "10"],
                   "risk": ["risk", "--directed", "--samples", "10"]}


def machine() -> dict:
    import numpy
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "os": platform.system(),
            "machine": platform.machine()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return info


def blas_env(blas: str) -> dict:
    """This environment under a --blas setting (see the module docstring)."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    if blas != "default":
        env["OPENBLAS_NUM_THREADS"] = blas
    return env


def run_point(src: str, model: str, n: int, seed: int, stack: str,
              blas: str) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, src, model, str(n),
                          str(seed), stack], capture_output=True, text=True,
                         check=True, env=blas_env(blas))
    return json.loads(out.stdout.splitlines()[-1])


def imports(trees: dict, rounds: int, seed: int) -> dict:
    """The import axis (see the module docstring)."""
    import numpy as np
    hit = np.random.default_rng(seed).random((60, 60)) < 0.08
    np.fill_diagonal(hit, False)
    with tempfile.TemporaryDirectory() as tmp:
        edges = Path(tmp) / "er-dir-60.edges"
        edges.write_text("".join(f"{i} {j}\n" for i, j in zip(*np.nonzero(hit))))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        runs = []
        for rnd in range(rounds):
            for command, argv in IMPORT_COMMANDS.items():
                for side in sorted(trees, reverse=rnd % 2 == 1):
                    out = subprocess.run(
                        [sys.executable, "-c", IMPORT_CHILD, trees[side],
                         str(edges), *argv], capture_output=True, text=True,
                        check=True, env=env)
                    run = json.loads(out.stdout.splitlines()[-1])
                    runs.append(dict(run, command=command, side=side))
                    print(f"round {rnd} {side:6} {command}: import "
                          f"{run['import_s']:.4f} s, main {run['main_s']:.4f} s, "
                          f"{len(run['modules'])} modules", file=sys.stderr)
    summary = {}
    for command in IMPORT_COMMANDS:
        summary[command] = {}
        for side in trees:
            mine = [r for r in runs if (r["command"], r["side"]) == (command, side)]
            summary[command][side] = {
                "import_s": statistics.median(r["import_s"] for r in mine),
                "main_s": statistics.median(r["main_s"] for r in mine),
                "exits": sorted({r["exit"] for r in mine}),
                "modules": sorted({m for r in mine for m in r["modules"]}),
                "same_modules_every_run": len({tuple(r["modules"]) for r in mine}) == 1}
    return {"rounds": rounds, "input": "directed ER(60, .08) from "
            f"numpy default_rng({seed})", "summary": summary, "runs": runs}


def exponent(ns: list[int], walls: list[float]) -> float:
    """Least-squares slope of log(wall) against log(n)."""
    x = [math.log(n) for n in ns]
    y = [math.log(w) for w in walls]
    mx, my = statistics.fmean(x), statistics.fmean(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def grouped(items: list[dict], fields: tuple) -> list[tuple[dict, list]]:
    """items grouped by their values of `fields`, in first-seen order, each
    group as ({field: value}, its items)."""
    groups = {}
    for item in items:
        groups.setdefault(tuple(item[f] for f in fields), []).append(item)
    return [(dict(zip(fields, key)), mine) for key, mine in groups.items()]


def ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def blas_settings(text: str) -> list[str]:
    values = [v for v in text.split(",") if v]
    for v in values:
        if v != "default" and not (v.isdigit() and int(v) >= 1):
            raise argparse.ArgumentTypeError(f"not 'default' or a count: {v!r}")
    return values


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--change", required=True)
    ap.add_argument("--base")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--ba", type=ints)
    ap.add_argument("--sf", type=ints)
    ap.add_argument("--star", type=ints)
    ap.add_argument("--hub", type=ints)
    ap.add_argument("--risk", type=ints)
    ap.add_argument("--sample", type=ints)
    ap.add_argument("--compare", type=ints)
    ap.add_argument("--stack-elements", type=ints, default=None)
    ap.add_argument("--blas", type=blas_settings, default=["default"])
    ap.add_argument("--imports", type=int, metavar="R")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if all(v is None for v in (args.ba, args.sf, args.star, args.hub,
                               args.risk, args.sample, args.compare,
                               args.imports)):
        args.ba, args.sf = [200, 400, 800, 1600], [200, 400, 800]

    trees = {"change": str(Path(args.change).resolve())}
    if args.base:
        trees["base"] = str(Path(args.base).resolve())
    stacks = [str(v) for v in args.stack_elements] if args.stack_elements else ["default"]
    cases = [(model, n, stack, blas) for blas in args.blas for stack in stacks
             for model, sizes in (("ba", args.ba), ("sf", args.sf),
                                  ("star", args.star), ("hub", args.hub),
                                  ("risk", args.risk),
                                  ("sample", args.sample),
                                  ("compare", args.compare))
             for n in sizes or ()]
    points = []
    for rnd in range(args.rounds):
        sides = sorted(trees, reverse=rnd % 2 == 1)
        for model, n, stack, blas in cases:
            for side in sides:
                p = run_point(trees[side], model, n, args.seed, stack, blas)
                p.update(side=side, model=model, n=n, blas=blas, round=rnd)
                points.append(p)
                print(f"round {rnd} {side:6} {model}({n}) "
                      f"stack {p['stack_elements']} blas {blas} "
                      f"({p['threads']} threads): {p['wall_s']:.3f} s, "
                      f"{p['minflt']} faults, {p['maxrss_mb']} MiB",
                      file=sys.stderr)

    summary = []
    for key, mine in grouped(points, ("model", "n", "stack_elements", "blas")):
        row = dict(key, same_hash=len({p["sha256"] for p in mine}) == 1)
        for side in trees:
            runs = [p for p in mine if p["side"] == side]
            row[side] = {m: round(statistics.median(p[m] for p in runs), 4)
                         for m in ("wall_s", "minflt", "maxrss_mb")}
            row[side]["threads"] = sorted({p["threads"] for p in runs},
                                          key=str)
        if "base" in trees:
            row["wall_ratio"] = round(row["change"]["wall_s"]
                                      / row["base"]["wall_s"], 3)
        summary.append(row)
    exponents = []
    for key, rows in grouped(summary, ("model", "stack_elements", "blas")):
        if len(rows) >= 2:
            exponents.append({**key, **{
                side: round(exponent([r["n"] for r in rows],
                                     [r[side]["wall_s"] for r in rows]), 3)
                for side in trees}})
    result = {"machine": machine(), "rounds": args.rounds, "seed": args.seed,
              "summary": summary, "exponents": exponents, "points": points}
    if args.imports:
        result["imports"] = imports(trees, args.imports, args.seed)
    json.dump(result, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
