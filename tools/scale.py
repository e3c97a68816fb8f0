#!/usr/bin/env python3
"""Time `inforank()` and the risk experiment against n, one fresh
interpreter per point.

Usage:

    python3 tools/scale.py --change SRC [--base SRC] [--rounds R]
        [--ba 200,400,800,1600] [--sf 200,400,800] [--risk 60,120,240,300]
        [--stack-elements 8192,65536] [--seed 1] > scale.json

SRC is the directory that holds the `inforank` package (a checkout's
`src`). Each point is BA(n, 3) (`--ba`) or directed scale-free(n, 2)
(`--sf`) from that tree's own generators with `--seed`, ranked by
`inforank()` with default options in a new `python3` process, or directed
scale-free(n, 2) run through `risk_error_experiment()` with 100 samples
per node and its other defaults (`--risk`). With none of the three
options, the BA and scale-free defaults shown above run. The child
reports the wall time of the `inforank()` or `risk_error_experiment()`
call, the minor page faults it took (`ru_minflt` after minus before), the
process's peak RSS (`ru_maxrss`) and a sha256 of S0, S_cond, S0_contrib,
I and the failed flags, or of the risk experiment's mse. With
`--stack-elements`, the child sets `maxent.STACK_ELEMENTS` to each value
in turn before the call.

Every round runs every point on each tree; the tree that runs first
alternates from round to round. The JSON on stdout holds the machine, every
point, and per (model, n, stack elements) the median of each side, the
change/base ratio of the medians and whether every run of both trees gave
the same hash. Per model and stack elements with two sizes or more, it also
holds each side's fitted exponent: the least-squares slope of log(median
wall_s) against log(n), so that the wall time grows as n^exponent.
Progress goes to stderr.
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
from pathlib import Path

CHILD = r"""
import hashlib, json, resource, sys, time
src, model, n, seed, stack = sys.argv[1:]
sys.path.insert(0, src)
import numpy as np
from inforank import inforank, maxent, risk_error_experiment
from inforank.generators import barabasi_albert, scale_free_directed
if not maxent.__file__.startswith(src):
    sys.exit(f"inforank imported from {maxent.__file__}, not from {src}")
if stack != "default":
    maxent.STACK_ELEMENTS = int(stack)
make = barabasi_albert if model == "ba" else scale_free_directed
g = make(int(n), 3 if model == "ba" else 2, seed=int(seed))
before = resource.getrusage(resource.RUSAGE_SELF)
t0 = time.perf_counter()
if model == "risk":
    r = risk_error_experiment(g, samples_per_node=100)
else:
    r = inforank(g)
wall = time.perf_counter() - t0
after = resource.getrusage(resource.RUSAGE_SELF)
h = hashlib.sha256()
for a in ((r.mse,) if model == "risk" else
          (r.S0, r.S_cond, r.S0_contrib, r.I, r.failed)):
    h.update(np.ascontiguousarray(a).tobytes())
print(json.dumps({"wall_s": round(wall, 4),
                  "minflt": after.ru_minflt - before.ru_minflt,
                  "maxrss_mb": round(after.ru_maxrss / 1024, 1),
                  "stack_elements": maxent.STACK_ELEMENTS,
                  "sha256": h.hexdigest()}))
"""


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


def run_point(src: str, model: str, n: int, seed: int, stack: str) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, src, model, str(n),
                          str(seed), stack], capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def exponent(ns: list[int], walls: list[float]) -> float:
    """Least-squares slope of log(wall) against log(n)."""
    x = [math.log(n) for n in ns]
    y = [math.log(w) for w in walls]
    mx, my = statistics.fmean(x), statistics.fmean(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--change", required=True)
    ap.add_argument("--base")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--ba", type=ints)
    ap.add_argument("--sf", type=ints)
    ap.add_argument("--risk", type=ints)
    ap.add_argument("--stack-elements", type=ints, default=None)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.ba is args.sf is args.risk is None:
        args.ba, args.sf = [200, 400, 800, 1600], [200, 400, 800]

    trees = {"change": str(Path(args.change).resolve())}
    if args.base:
        trees["base"] = str(Path(args.base).resolve())
    stacks = [str(v) for v in args.stack_elements] if args.stack_elements else ["default"]
    cases = [(model, n, stack) for stack in stacks
             for model, sizes in (("ba", args.ba), ("sf", args.sf),
                                  ("risk", args.risk))
             for n in sizes or ()]
    points = []
    for rnd in range(args.rounds):
        sides = sorted(trees, reverse=rnd % 2 == 1)
        for model, n, stack in cases:
            for side in sides:
                p = run_point(trees[side], model, n, args.seed, stack)
                p.update(side=side, model=model, n=n, round=rnd)
                points.append(p)
                print(f"round {rnd} {side:6} {model}({n}) "
                      f"stack {p['stack_elements']}: {p['wall_s']:.3f} s, "
                      f"{p['minflt']} faults, {p['maxrss_mb']} MiB",
                      file=sys.stderr)

    summary = []
    for key in dict.fromkeys((p["model"], p["n"], p["stack_elements"])
                             for p in points):
        mine = [p for p in points
                if (p["model"], p["n"], p["stack_elements"]) == key]
        row = dict(zip(("model", "n", "stack_elements"), key),
                   same_hash=len({p["sha256"] for p in mine}) == 1)
        for side in trees:
            runs = [p for p in mine if p["side"] == side]
            row[side] = {m: round(statistics.median(p[m] for p in runs), 4)
                         for m in ("wall_s", "minflt", "maxrss_mb")}
        if "base" in trees:
            row["wall_ratio"] = round(row["change"]["wall_s"]
                                      / row["base"]["wall_s"], 3)
        summary.append(row)
    exponents = []
    for model, stack in dict.fromkeys((r["model"], r["stack_elements"])
                                      for r in summary):
        rows = [r for r in summary
                if (r["model"], r["stack_elements"]) == (model, stack)]
        if len(rows) >= 2:
            exponents.append({"model": model, "stack_elements": stack, **{
                side: round(exponent([r["n"] for r in rows],
                                     [r[side]["wall_s"] for r in rows]), 3)
                for side in trees}})
    json.dump({"machine": machine(), "rounds": args.rounds, "seed": args.seed,
               "summary": summary, "exponents": exponents, "points": points},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
