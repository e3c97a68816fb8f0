#!/usr/bin/env python3
"""inforank benchmark: runs one workload against the real CLI and checks it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rank-ba --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --manifest > BENCHMARK.json

Each invocation is inforank.cli.main(argv) in a fresh interpreter
(child.py) on an edge list from the workload's pool (workloads.py); --seed
picks one entry of each cost stratum of the pool, and their order.
Invocations run one at a time, cycling through the picks, for --seconds. Every artifact is checked against its reference
(check.py). With --trace 0 the run reports the end-to-end metrics, the
median over its invocations; with --trace 1 it runs each input untraced and
then traced (spans.py) and reports the per-layer metrics. The last line of
stdout is the JSON result; the lines above it give quartiles, sample counts,
input hashes and the machine.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
from workloads import POOL, STRATA, WORKLOADS, cli_argv, input_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD_TIMEOUT_S = 120
HARD_STOP_S = 150  # no invocation of a run outlives this, so a run ends within 180 s

END_TO_END = (
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.1),
)
PER_LAYER = (
    ("graphs.load_s", "s"), ("graphs.adjacency_calls", "count"),
    ("graphs.adjacency_s", "s"), ("graphs.serialize_s", "s"),
    ("maxent.bench_solve_s", "s"), ("maxent.bench_iterations", "count"),
    ("maxent.cond_solves", "count"), ("maxent.cond_solve_s", "s"),
    ("maxent.cond_solve_ms_p50", "ms"), ("maxent.cond_solve_ms_max", "ms"),
    ("maxent.cond_failures", "count"), ("maxent.cond_solves_per_node", "ratio"),
    ("entropy.inforank_self_s", "s"), ("entropy.benchmark_entropy_calls", "count"),
    ("entropy.benchmark_entropy_s", "s"),
    ("recon.accuracy_report_self_s", "s"), ("recon.expected_accuracy_calls", "count"),
    ("centrality.closeness_s", "s"), ("centrality.pagerank_s", "s"),
    ("sampling.draws", "count"), ("sampling.draw_s", "s"), ("sampling.draw_ms_p50", "ms"),
    ("clearing.clear_calls", "count"), ("clearing.clear_s", "s"),
    ("clearing.clear_iterations_mean", "count"), ("clearing.risk_self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("graphs.self_s", "s"), ("maxent.self_s", "s"), ("entropy.self_s", "s"),
    ("recon.self_s", "s"), ("centrality.self_s", "s"), ("sampling.self_s", "s"),
    ("clearing.self_s", "s"), ("cli.self_s", "s"),
    ("trace.untraced_s", "s"), ("trace.overhead_s", "s"),
    ("check.fail_frac", "ratio"), ("check.byte_identical_frac", "ratio"),
)


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 28,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n == "check.byte_identical_frac" else "lower"}
                      for n, u in PER_LAYER],
    }


def machine() -> dict:
    """The machine and code a run measured, for the lines above the result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads_env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(threads_env) if threads_env else nproc,
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_refs(name: str) -> list[dict]:
    with gzip.open(HERE / "ref" / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "INFORANK_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(wl, idx: int, inp: Path, n_nodes: int, trace: bool,
           timeout: float = CHILD_TIMEOUT_S) -> tuple[dict | None, Path]:
    """Run one CLI invocation in a fresh interpreter; returns its result
    (None if the child died) and the path of its artifact."""
    out = WORK / ("samples" if wl.samples else "artifact.json")
    result_path = WORK / "result.json"
    for p in (out, result_path):
        shutil.rmtree(p) if p.is_dir() else p.unlink(missing_ok=True)
    req = {"argv": cli_argv(wl, idx, inp, out), "src": str(SRC),
           "result": str(result_path), "trace": trace, "input": str(inp),
           "directed": "--directed" in wl.args, "n_nodes": n_nodes}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(req)],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"invocation {idx} timed out after {timeout:.0f} s\n")
        return None, out
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write(f"invocation {idx} died ({proc.returncode}): {proc.stderr[-2000:]}\n")
        return None, out
    return json.loads(result_path.read_text()), out


def check_output(wl, ref: dict, result: dict | None, out: Path,
                 labels: set[str], self_check: bool) -> tuple[check.Outcome, int, bool | None]:
    """Outcome of one invocation, its artifact size in bytes and, when
    self_check is set, whether a perturbed copy of its artifact is flagged."""
    files = sorted(out.iterdir()) if out.is_dir() else [out] if out.is_file() else []
    size = sum(f.stat().st_size for f in files)
    flagged = None
    if wl.samples:
        texts = [f.read_text() for f in files]
        outcome = check.check_samples(ref, texts, labels)
        if self_check and texts:
            texts[0] = check.perturb_sample(texts[0])
            flagged = check.check_samples(ref, texts, labels).failed > outcome.failed
    else:
        text = files[0].read_text() if files else None
        outcome = check.check_json(ref, text, wl.rows)
        if self_check and text is not None:
            perturbed = check.perturb_json(text, wl.rows)
            flagged = check.check_json(ref, perturbed, wl.rows).failed > outcome.failed
    if result is None or result["exit"] != 0:
        outcome.failed = outcome.attempted
    return outcome, size, flagged


def pick_inputs(refs: list[dict], seed: int) -> list[int]:
    """One pool entry from each of STRATA strata, in a seed-chosen order.
    The strata group the pool by the time each entry took when its
    reference was made, so that every run times cheap and costly inputs
    alike and its median does not hang on which entries the seed drew."""
    ranked = sorted(range(POOL), key=lambda i: refs[i]["cost_s"])
    size = POOL // STRATA
    rng = np.random.default_rng(seed)
    picks = [int(rng.choice(ranked[k * size:(k + 1) * size])) for k in range(STRATA)]
    rng.shuffle(picks)
    return picks


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    refs = load_refs(workload)
    picks = pick_inputs(refs, seed)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    print("# machine " + json.dumps(machine()))

    untraced, traced, pairs = [], [], []
    attempted = failed = identical = 0
    inputs_ok, self_checked = True, None
    cost: list[float] = []
    start = time.perf_counter()

    def more(t: int) -> bool:
        """An untraced run makes at least one pass over the picks, a traced
        one at least two inputs; then both go on while time is left."""
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            return False
        return (t < (2 if trace else len(picks))
                or elapsed + statistics.median(cost) < seconds)

    t = 0
    while more(t):
        t0 = time.perf_counter()
        idx = picks[t % len(picks)]
        text = input_text(wl, idx)
        sha = check.sha256(text)
        if t < len(picks):
            print(f"# input {wl.name}[{idx}] sha256 {sha}")
        inputs_ok &= sha == refs[idx]["input_sha256"]
        inp = WORK / "input.edges"
        inp.write_text(text)
        labels = {tok for line in text.splitlines() if not line.startswith("#")
                  for tok in line.split()}
        walls = {}
        for traced_now in ((False, True) if trace else (False,)):
            result, out = invoke(wl, idx, inp, len(labels), traced_now,
                                 timeout=max(1.0, start + HARD_STOP_S - time.perf_counter()))
            outcome, size, flagged = check_output(
                wl, refs[idx], result, out, labels, self_check=self_checked is None)
            if flagged is not None:
                self_checked = flagged
            attempted += outcome.attempted
            failed += outcome.failed
            identical += outcome.identical
            if result is None:
                continue
            result["output_bytes"] = size
            (traced if traced_now else untraced).append(result)
            walls[traced_now] = result["wall_s"]
        if len(walls) == 2:
            pairs.append(walls[True] - walls[False])
        cost.append(time.perf_counter() - t0)
        t += 1
    shutil.rmtree(WORK, ignore_errors=True)

    correct = failed == 0 and inputs_ok and bool(self_checked)
    print(f"# {wl.name}: {t} inputs, {len(untraced)} untraced and {len(traced)} traced "
          f"invocations in {time.perf_counter() - start:.1f} s")
    print(f"# check: {attempted} operations, {failed} failed, "
          f"fail_frac {failed / max(attempted, 1):.6g}, {identical} byte-identical; "
          f"inputs match references: {inputs_ok}; "
          f"perturbed artifact flagged: {self_checked}")
    metrics = {}
    for name, unit, _ in END_TO_END:
        values = [r[name] for r in untraced] or [0.0]
        q1, med, q3 = quartiles(values)
        print(f"# {name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(values)} {unit}")
        if not trace:
            metrics[name] = {"value": med, "unit": unit}
    if trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]} if traced else {}
        layers["cli.output_bytes"] = statistics.median(
            r["output_bytes"] for r in traced) if traced else 0
        layers["trace.overhead_s"] = statistics.median(pairs) if pairs else 0.0
        layers["check.fail_frac"] = failed / max(attempted, 1)
        layers["check.byte_identical_frac"] = identical / max(attempted, 1)
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers.get(name, 0.0), "unit": unit}
            print(f"# {name:34s} {metrics[name]['value']:.6g} {unit}")
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--manifest", action="store_true",
                    help="print BENCHMARK.json for these workloads and metrics, and exit")
    args = ap.parse_args()
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "inforank" / "cli.py").is_file():
        print(f"error: no inforank sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
