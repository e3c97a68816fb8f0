"""Output checker: a CLI artifact against the reference made from the same
pool entry by the reference commit (see make_refs.py).

An operation is one node of a ranking (the rows of a JSON artifact) or one
sample file. JSON artifacts (rank, accuracy, risk):
  * keys, integers, strings, booleans and nulls must equal the reference;
  * floats must agree within RTOL relative or ATOL absolute. The CLI prints
    12 significant digits; solving to 1e-12 instead of the default 1e-10
    moves entropies by about 1e-11 relative and the index
    I = 1 - S_cond/S0 by about 1e-11 absolute (up to 1e-9 relative on
    small I), which these tolerances pass;
  * a mismatch inside row i fails node i; one elsewhere fails every node;
  * a node listed in failed_nodes fails;
  * invariants per row: 0 <= inforank <= 1, 0 <= S_cond <= S0,
    0 <= accuracy <= 1, mse >= 0 (a null there fails the node).
Samples (undirected): the header and the edge set of each file must equal
the reference; every edge joins two distinct input labels, at most once. A
file with the reference's bytes passes unparsed, as make_refs checked it.
Byte-identity with the reference is counted apart and fails nothing.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

RTOL = 1e-9
ATOL = 1e-10


@dataclass
class Outcome:
    attempted: int
    failed: int
    identical: int  # operations whose artifact bytes equal the reference's


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff(ref, out, path=()):
    """Yield the path of every place where out differs from ref."""
    if isinstance(ref, dict) and isinstance(out, dict):
        if ref.keys() != out.keys():
            yield path
        for key in ref.keys() & out.keys():
            yield from diff(ref[key], out[key], path + (key,))
    elif isinstance(ref, list) and isinstance(out, list):
        if len(ref) != len(out):
            yield path
        for i, (a, b) in enumerate(zip(ref, out)):
            yield from diff(a, b, path + (i,))
    elif _is_num(ref) and _is_num(out) and float in (type(ref), type(out)):
        if not math.isclose(ref, out, rel_tol=RTOL, abs_tol=ATOL):
            yield path
    elif type(ref) is not type(out) or ref != out:
        yield path


def _row_ok(row: dict, s0) -> bool:
    def within(key, lo, hi=math.inf):
        v = row[key]
        return _is_num(v) and lo <= v <= hi
    checks = {"inforank": (0.0, 1.0), "accuracy": (0.0, 1.0), "mse": (0.0,),
              "S_cond": (0.0, s0 if _is_num(s0) else -math.inf)}
    return all(within(key, *bounds) for key, bounds in checks.items() if key in row)


def check_json(ref: dict, out_text: str | None, rows: str) -> Outcome:
    """Check one JSON artifact; `ref` is a reference entry of make_refs."""
    want = ref["artifact"]
    n = len(want[rows])
    try:
        got = json.loads(out_text) if out_text is not None else None
    except ValueError:
        got = None
    if not isinstance(got, dict) or not isinstance(got.get(rows), list):
        return Outcome(n, n, 0)
    bad = set(want.get("failed_nodes", [])) | set(got.get("failed_nodes", []))
    for path in diff({k: v for k, v in want.items() if k != "failed_nodes"},
                     {k: v for k, v in got.items() if k != "failed_nodes"}):
        if len(path) < 2 or path[0] != rows:
            return Outcome(n, n, 0)
        bad.add(path[1])
    bad |= {i for i, row in enumerate(got[rows])
            if not isinstance(row, dict) or not _row_ok(row, got.get("S0"))}
    identical = n if sha256(out_text) == ref["artifact_sha256"] else 0
    return Outcome(n, len(bad & set(range(n))), identical)


def sample_digest(text: str, labels: set[str]) -> dict:
    """Byte and content digests of one undirected sample file, and whether
    its edges are valid for an input with these labels."""
    header, pairs = [], set()
    valid = True
    for line in text.splitlines():
        if line.startswith("#"):
            header.append(line.split())
            continue
        fields = line.split()
        if not fields:
            continue
        pair = tuple(sorted(fields))
        valid &= (len(fields) == 2 and pair[0] != pair[1]
                  and set(pair) <= labels and pair not in pairs)
        pairs.add(pair)
    content = json.dumps([header, sorted(pairs)])
    return {"bytes": sha256(text)[:16], "content": sha256(content)[:16], "valid": valid}


def check_samples(ref: dict, texts: list[str], labels: set[str]) -> Outcome:
    """Check the sample files of one `sample` run, in file-name order."""
    want = ref["samples"]
    failed = identical = 0
    for t, expected in enumerate(want):
        if t >= len(texts):
            failed += 1
            continue
        if sha256(texts[t])[:16] == expected["bytes"]:
            identical += 1  # same bytes as a reference that was checked
            continue
        got = sample_digest(texts[t], labels)
        failed += not (got["valid"] and got["content"] == expected["content"])
    failed += max(0, len(texts) - len(want))
    return Outcome(len(want), min(failed, len(want)), identical)


def perturb_json(text: str, rows: str) -> str:
    """The artifact with the first float of row 0 moved by 1e-6 relative."""
    art = json.loads(text)
    row = art[rows][0]
    key = next(k for k, v in row.items() if isinstance(v, float))
    row[key] *= 1.0 + 1e-6
    return json.dumps(art)


def perturb_sample(text: str) -> str:
    """The sample file without its last edge line."""
    lines = text.splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if line.strip() and not line.startswith("#"))
    return "".join(lines[:last] + lines[last + 1:])
