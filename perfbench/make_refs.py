#!/usr/bin/env python3
"""Make the reference artifacts that check.py compares against.

Usage, from the root of a checkout of the reference commit:

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every pool entry of each workload once through the CLI, as the
benchmark does, and writes perfbench/ref/<workload>.json.gz. An artifact is
kept only if it passes check.py against itself, so every reference has exit
code 0, no failed node and holds the invariants.
"""
from __future__ import annotations

import gzip
import json
import shutil
import sys

import check
import run
from workloads import POOL, WORKLOADS, input_text


def reference(wl, idx: int) -> dict:
    text = input_text(wl, idx)
    labels = {tok for line in text.splitlines() if not line.startswith("#")
              for tok in line.split()}
    inp = run.WORK / "input.edges"
    inp.write_text(text)
    result, out = run.invoke(wl, idx, inp, len(labels), trace=False)
    if result is None or result["exit"] != 0:
        raise SystemExit(f"{wl.name}[{idx}]: the CLI failed")
    entry = {"idx": idx, "input_sha256": check.sha256(text), "cost_s": result["wall_s"]}
    if wl.samples:
        entry["samples"] = [check.sample_digest(f.read_text(), labels)
                            for f in sorted(out.iterdir())]
        if not all(s.pop("valid") for s in entry["samples"]):
            raise SystemExit(f"{wl.name}[{idx}]: invalid sample file")
        outcome = check.check_samples(entry, [f.read_text() for f in sorted(out.iterdir())],
                                      labels)
    else:
        artifact = out.read_text()
        entry["artifact_sha256"] = check.sha256(artifact)
        entry["artifact"] = json.loads(artifact)
        outcome = check.check_json(entry, artifact, wl.rows)
    if outcome.failed or outcome.identical != outcome.attempted:
        raise SystemExit(f"{wl.name}[{idx}]: artifact fails its own check: {outcome}")
    return entry


def main(names: list[str]) -> None:
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    (run.HERE / "ref").mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        entries = [reference(wl, idx) for idx in range(POOL)]
        doc = {"workload": name, "commit": run.machine()["commit"], "entries": entries}
        with gzip.GzipFile(run.HERE / "ref" / f"{name}.json.gz", "wb", mtime=0) as fh:
            fh.write(json.dumps(doc, separators=(",", ":")).encode())
        print(f"{name}: {len(entries)} references")
    shutil.rmtree(run.WORK, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
