"""The benchmark's workloads and their input pools.

Each workload owns a pool of POOL input graphs. Pool entry `idx` is made by
the workload's generator from the fixed stream (workload.stream, idx), so
its edge list, and the reference artifact made from it, never change. The
benchmark's --seed chooses which entries a run uses (see run.pick_inputs).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen

POOL = 24
STRATA = 8  # a run times one entry of each stratum of POOL // STRATA entries


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: int
    graph: Callable[[np.random.Generator], list]
    args: tuple[str, ...]     # CLI subcommand and its flags, before --input
    rows: str | None          # artifact key holding one row per node
    samples: int = 0          # > 0: a `sample` run writing this many files


WORKLOADS = {w.name: w for w in (
    Workload(
        "rank-ba",
        "undirected ranking: one benchmark solve, then one conditioned solve per node",
        stream=1, graph=lambda rng: gen.barabasi_albert(120, 3, rng),
        args=("rank",), rows="nodes"),
    Workload(
        "accuracy-erdir",
        "directed solver with two conditioned passes per node, plus recon and centrality",
        stream=2, graph=lambda rng: gen.erdos_renyi_directed(80, 0.075, rng),
        args=("accuracy", "--directed"), rows="per_node"),
    Workload(
        "risk-sf",
        "clearing and adjacency sampling outweigh the directed conditioned solves",
        stream=3, graph=lambda rng: gen.scale_free_directed(60, 2, rng),
        args=("risk", "--directed", "--samples", "100"), rows="nodes"),
    Workload(
        "sample-ba",
        "large-n benchmark solve, Graph-building sampler and file writes, no conditioned solve",
        stream=4, graph=lambda rng: gen.barabasi_albert(600, 3, rng),
        args=("sample", "--samples", "100"), rows=None, samples=100),
)}


def input_text(wl: Workload, idx: int) -> str:
    """Edge list of pool entry idx of workload wl."""
    edges = wl.graph(np.random.default_rng([wl.stream, idx]))
    return f"# {wl.name} pool entry {idx}\n" + gen.edge_list_text(edges)


def cli_argv(wl: Workload, idx: int, input_path: Path, out_path: Path) -> list[str]:
    """Arguments for inforank.cli.main. The CLI seed is the pool index, so a
    pool entry always gives the same artifact."""
    out_flag = "--output-dir" if wl.samples else "--output"
    return [*wl.args, "--input", str(input_path), "--seed", str(idx),
            out_flag, str(out_path)]
