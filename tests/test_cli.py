import csv
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from inforank import SampleSpec, maxent, sample_ensemble, sampling
from inforank.centrality import rescale
from inforank.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main)
from inforank.entropy import inforank
from inforank.generators import from_spec
from inforank.graphs import degree_sequence
from inforank.recon import solved_pearson


def run(tmp_path, *argv):
    flag, out = (("--output-dir", tmp_path / "samples") if argv[0] == "sample"
                 else ("--output", tmp_path / "out.json"))
    code = main(list(argv) + [flag, str(out)])
    return code, out


def count_solves(monkeypatch):
    """Count benchmark solves wherever inforank calls them, the class
    systems classified (the rows of maxent._classify's chunks) and those
    that reach the fixed-point loops (one each per solve), and the nodes
    whose conditioned ensembles the conditioned pass hands out."""
    counts = {"benchmark": 0, "classes": 0, "systems": 0, "nodes": []}
    real_bench, real_each = maxent.solve_classes, maxent.solve_each_conditioned
    real_systems, real_classify = maxent._solve_systems, maxent._classify

    def bench(g, nodes=None, *args, **kwargs):
        counts["benchmark"] += nodes is None
        return real_bench(g, nodes, *args, **kwargs)

    def each(*args, **kwargs):
        for node, pm in real_each(*args, **kwargs):
            counts["nodes"].append(node)
            yield node, pm

    def systems(stack, *args, **kwargs):
        counts["systems"] += len(stack)
        return real_systems(stack, *args, **kwargs)

    def classify(k_out, k_in):
        counts["classes"] += len(k_out)
        return real_classify(k_out, k_in)

    modules = [m for name, m in sys.modules.items()
               if name == "inforank" or name.startswith("inforank.")]
    for real, fake in ((real_bench, bench), (real_each, each)):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, fake)
    monkeypatch.setattr(maxent, "_solve_systems", systems)
    monkeypatch.setattr(maxent, "_classify", classify)
    return counts


def test_rank_star_center_scores_one(tmp_path):
    code, out = run(tmp_path, "rank", "--generate", "star:5")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["seed"] == 0
    nodes = payload["nodes"]
    assert nodes[0]["inforank"] == 1.0
    assert all(row["inforank"] < 1.0 for row in nodes[1:])


def test_rank_empty_file_exits_parse(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["rank", "--input", str(empty)]) == EXIT_PARSE


def test_hash_label_exits_parse(tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("a #b\nc #b\na c\n")
    assert main(["sample", "--input", str(edges), "--samples", "1"]) == EXIT_PARSE
    assert main(["rank", "--input", str(edges)]) == EXIT_PARSE


def test_rank_missing_file_exits_parse():
    assert main(["rank", "--input", "/no/such/file"]) == EXIT_PARSE


def test_rank_undefined_index_exits_solver(tmp_path):
    code, _ = run(tmp_path, "rank", "--generate", "er:4,1.0")
    assert code == EXIT_SOLVER


def test_bad_generator_spec_exits_config(tmp_path, monkeypatch):
    # more arguments than the generator takes fail before any solve
    counts = count_solves(monkeypatch)
    for spec in ("nope:3", "er:-3,0.5", "ba:0,3", "ba:10,3,99", "star:5,3",
                 "ring:10,2,5", "er:6,0.5,1", "scalefree:8,2,4", "er:6"):
        code, _ = run(tmp_path, "rank", "--generate", spec)
        assert code == EXIT_CONFIG, spec
    assert counts["benchmark"] == 0 and counts["nodes"] == []
    # m of scalefree is optional, and an empty argument is skipped
    for spec, same in (("scalefree:8", "scalefree:8,2"), ("er:5,0.5,", "er:5,0.5")):
        assert from_spec(spec, seed=1).edges == from_spec(same, seed=1).edges
        assert main(["rank", "--generate", spec, "--output",
                     str(tmp_path / "ok.json")]) == EXIT_OK, spec


def test_rank_p4_matches_library(tmp_path):
    edges = tmp_path / "p4.txt"
    edges.write_text("a b\nb c\nc d\n")
    code, out = run(tmp_path, "rank", "--input", str(edges))
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    from inforank import inforank, load_edge_list
    rep = inforank(load_edge_list("a b\nb c\nc d\n"))
    got = [row["inforank"] for row in payload["nodes"]]
    assert np.allclose(got, rep.I, atol=1e-11)


def test_rank_base2_rescales_entropies_not_index(tmp_path):
    code1, out1 = run(tmp_path, "rank", "--generate", "er:12,0.4", "--seed", "2")
    nats = json.loads(out1.read_text())
    code2, out2 = run(tmp_path, "rank", "--generate", "er:12,0.4", "--seed", "2",
                      "--base2")
    bits = json.loads(out2.read_text())
    assert bits["entropy_unit"] == "bits"
    assert abs(bits["S0"] - nats["S0"] / np.log(2)) < 1e-9
    assert bits["nodes"][0]["inforank"] == nats["nodes"][0]["inforank"]


def test_compare_three_cycle_constant_indices(tmp_path):
    edges = tmp_path / "c3.txt"
    edges.write_text("a b\nb c\nc a\n")
    code, out = run(tmp_path, "compare", "--input", str(edges), "--directed")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    for name in ("degree", "closeness", "pagerank", "inforank"):
        values = [row[name] for row in payload["nodes"]]
        assert max(values) - min(values) < 1e-9
    assert all(v is None for v in payload["correlations"].values())


def test_compare_measure_and_alpha_passthrough(tmp_path):
    code, out = run(tmp_path, "compare", "--generate", "er:12,0.3", "--seed", "4",
                    "--directed", "--measure", "pagerank", "--alpha", "0.5")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["pagerank_alpha"] == 0.5
    from inforank import pagerank
    from inforank.generators import erdos_renyi
    expect = pagerank(erdos_renyi(12, 0.3, seed=4, directed=True), alpha=0.5)
    got = [row["pagerank"] for row in payload["nodes"]]
    assert np.allclose(got, expect.scores, atol=1e-9)


def test_accuracy_command(tmp_path):
    code, out = run(tmp_path, "accuracy", "--generate", "er:25,0.15", "--seed", "5",
                    "--directed")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload["correlations"]) == {"degree", "closeness", "pagerank",
                                            "inforank"}
    assert 0 <= payload["benchmark_accuracy"] <= 1
    assert len(payload["per_node"]) == 25


def test_sample_writes_numbered_files(tmp_path):
    outdir = tmp_path / "samples"
    code = main(["sample", "--generate", "er:15,0.3", "--seed", "6",
                 "--samples", "4", "--output-dir", str(outdir)])
    assert code == EXIT_OK
    files = sorted(p.name for p in outdir.iterdir())
    assert files == [f"sample_{t:05d}.edges" for t in range(4)]


def test_sample_refuses_a_directory_with_sample_files(tmp_path, monkeypatch,
                                                     capsys):
    # a second run into the same directory would leave the first run's
    # files next to its own; it exits 2 before any solve and names the
    # directory, and a fresh directory works
    argv = ["sample", "--generate", "er:15,0.3", "--output-dir"]
    outdir = tmp_path / "samples"
    assert main(argv + [str(outdir), "--seed", "6", "--samples", "3"]) == EXIT_OK
    before = {p.name: p.read_text() for p in outdir.iterdir()}
    counts = count_solves(monkeypatch)
    capsys.readouterr()
    assert main(argv + [str(outdir), "--seed", "4", "--samples", "1"]) == EXIT_CONFIG
    assert str(outdir) in capsys.readouterr().err
    assert counts == {"benchmark": 0, "classes": 0, "systems": 0, "nodes": []}
    assert {p.name: p.read_text() for p in outdir.iterdir()} == before
    fresh = tmp_path / "fresh"
    assert main(argv + [str(fresh), "--seed", "4", "--samples", "1"]) == EXIT_OK
    assert [p.name for p in fresh.iterdir()] == ["sample_00000.edges"]


def test_sample_writes_input_labels(tmp_path):
    # the same graph, once with names and once with its own indices as
    # labels: the draws match, written with the names
    names = ["alice", "bob", "carol", "dave", "erin", "frank"]
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5), (5, 1)]
    outs = {}
    for key, labels in (("names", names), ("indices", list(map(str, range(6))))):
        path = tmp_path / f"{key}.txt"
        path.write_text("".join(f"{labels[i]} {labels[j]}\n" for i, j in pairs))
        outdir = tmp_path / key
        assert main(["sample", "--input", str(path), "--seed", "3",
                     "--samples", "5", "--output-dir", str(outdir)]) == EXIT_OK
        outs[key] = [p.read_text() for p in sorted(outdir.iterdir())]
    rename = dict(zip(map(str, range(6)), names))
    for named, indexed in zip(outs["names"], outs["indices"]):
        lines = indexed.splitlines()
        assert lines[0].startswith("# seed=3")
        assert named.splitlines() == lines[:1] + [
            " ".join(rename[tok] for tok in line.split()) for line in lines[1:]]
    assert any(len(text.splitlines()) > 1 for text in outs["names"])


def test_risk_command_records_fits(tmp_path):
    code, out = run(tmp_path, "risk", "--generate", "scalefree:15,2", "--seed", "7",
                    "--samples", "10")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["alpha"] == 0.9 and payload["beta"] == 0.9
    assert payload["externals"]["mu_a"] == 10.0
    assert len(payload["fit_linear"]["coefficients_highest_first"]) == 2
    assert len(payload["fit_quadratic"]["coefficients_highest_first"]) == 3


def test_risk_requires_directed(tmp_path):
    code, _ = run(tmp_path, "risk", "--generate", "er:10,0.3", "--seed", "1")
    assert code == EXIT_CONFIG


def test_risk_csv_writes_sibling_fit_json(tmp_path):
    out = tmp_path / "risk.csv"
    code = main(["risk", "--generate", "scalefree:12,2", "--seed", "2",
                 "--samples", "6", "--format", "csv", "--output", str(out)])
    assert code == EXIT_OK
    assert out.read_text().startswith("# seed=2")
    fits = json.loads((tmp_path / "risk.fits.json").read_text())
    assert fits["seed"] == 2 and "fit_linear" in fits


def test_byte_identical_reruns_and_thread_independence(tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "2")):
        out = tmp_path / f"{name}.json"
        code = main(["rank", "--generate", "ba:30,2", "--seed", "9",
                     "--threads", threads, "--output", str(out)])
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for path in (r1, r2):
        assert main(["risk", "--generate", "scalefree:12,2", "--seed", "3",
                     "--samples", "8", "--output", str(path)]) == EXIT_OK
    assert r1.read_bytes() == r2.read_bytes()

    for argv in (["accuracy", "--generate", "er:20,0.2", "--seed", "5", "--directed"],
                 ["risk", "--generate", "scalefree:12,2", "--seed", "3",
                  "--samples", "8"]):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{argv[0]}_{threads}.json"
            assert main(argv + ["--threads", threads, "--output", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_csv_format_records_seed(tmp_path):
    out = tmp_path / "out.csv"
    code = main(["rank", "--generate", "star:5", "--format", "csv",
                 "--output", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert text.startswith("# seed=0")
    assert "node,label,k,S0_contrib,S_cond,inforank" in text


@pytest.mark.parametrize("spec, seed", [("ba:40,3", 1), ("scalefree:30,2", 2)],
                         ids=["ba-40-3", "sf-dir-30-2"])
def test_csv_and_json_artifacts_agree(tmp_path, spec, seed):
    g = from_spec(spec, seed=seed)
    # capped at the benchmark's own count, some conditioned solves fail
    solve = maxent.solve_dbcm if g.directed else maxent.solve_ubcm
    cap = solve(degree_sequence(g))[0].iterations
    commands = ["rank", "compare", "accuracy"] + (["risk"] if g.directed else [])
    for extra in ([], ["--max-iterations", str(cap)]):
        failed = inforank(g, maxent.SolverOptions(max_iterations=cap)
                          if extra else None).failed
        assert failed.any() == bool(extra)
        for command in commands:
            argv = [command, "--generate", spec, "--seed", str(seed), *extra]
            js, sheet = tmp_path / "out.json", tmp_path / "out.csv"
            code = main(argv + ["--output", str(js)])
            assert code == (EXIT_SOLVER if failed.any() else EXIT_OK)
            assert main(argv + ["--format", "csv", "--output", str(sheet)]) == code

            payload = json.loads(js.read_text())
            rows = payload["per_node" if command == "accuracy" else "nodes"]
            lines = [line for line in sheet.read_text().splitlines()
                     if not line.startswith("#")]
            header, *cells = csv.reader(lines)
            assert header == list(rows[0])
            assert cells == [["" if v is None else v if isinstance(v, str)
                              else "%.12g" % v for v in row.values()]
                             for row in rows]
            key = "accuracy" if command == "accuracy" else "inforank"
            assert [row[key] is None for row in rows] == failed.tolist()

            if command == "compare":
                # failed nodes take no part in the rescaling or correlations
                ok = ~failed
                got = np.array([row["inforank_rescaled"] for row in rows], float)
                assert np.isnan(got[failed]).all()
                score = np.array([row["inforank"] for row in rows], float)
                np.testing.assert_allclose(got[ok], rescale(score[ok]),
                                           rtol=0, atol=1e-11)
                for name in ("degree", "closeness", "pagerank"):
                    other = np.array([row[f"{name}_rescaled"] for row in rows])
                    np.testing.assert_allclose(
                        payload["correlations"][f"{name}~inforank"],
                        solved_pearson(other[ok], got[ok]), rtol=0, atol=1e-11)


def test_compare_with_under_two_solved_nodes(tmp_path):
    # capped at its benchmark's count, none of this graph's conditioned
    # solves converges: every inforank correlation is undefined
    g = from_spec("er:8,0.4", seed=2)
    cap = maxent.solve_ubcm(degree_sequence(g))[0].iterations
    code, out = run(tmp_path, "compare", "--generate", "er:8,0.4", "--seed", "2",
                    "--max-iterations", str(cap))
    assert code == EXIT_SOLVER
    payload = json.loads(out.read_text())
    assert all(row["inforank_rescaled"] is None for row in payload["nodes"])
    assert [key for key, r in payload["correlations"].items() if r is None] == [
        "degree~inforank", "closeness~inforank", "pagerank~inforank"]


def test_accuracy_with_under_two_solved_nodes(tmp_path):
    # the same capped graph: every node fails, so every correlation is
    # undefined, and accuracy lists the failed nodes and exits 4
    g = from_spec("er:8,0.4", seed=2)
    cap = maxent.solve_ubcm(degree_sequence(g))[0].iterations
    code, out = run(tmp_path, "accuracy", "--generate", "er:8,0.4", "--seed", "2",
                    "--max-iterations", str(cap))
    assert code == EXIT_SOLVER
    payload = json.loads(out.read_text())
    assert payload["failed_nodes"] == list(range(8))
    assert all(row["accuracy"] is None for row in payload["per_node"])
    assert payload["correlations"] == dict.fromkeys(
        ["degree", "closeness", "pagerank", "inforank"])


@pytest.mark.parametrize("argv, budget", [
    (["--generate", "er:15,0.3", "--seed", "6"], None),
    (["--generate", "er:5,0.0"], None),
    (["--generate", "star:6", "--conditioned-on", "0"], None),
    (["--generate", "ba:40,3", "--seed", "1"], 200),
    (["--generate", "scalefree:30,2", "--seed", "2", "--conditioned-on", "3"], 100),
    (["--generate", "er:20,0.2", "--seed", "5", "--directed"], 1),
], ids=["er", "no-edges", "star-cond", "ba-blocks", "sf-dir-cond-blocks",
        "er-dir-rows"])
def test_sample_writes_serialized_graph_draws(tmp_path, capsys, monkeypatch,
                                              argv, budget):
    # the streamed class draws, in one row block or several, write the
    # sorted edges of each sample_ensemble draw of the expanded ensemble
    if budget is not None:
        monkeypatch.setattr(sampling, "BLOCK_ELEMENTS", budget)
    spec = argv[argv.index("--generate") + 1]
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    g = from_spec(spec, seed=seed, directed="--directed" in argv)
    pm = (maxent.solve_classes(g, [int(argv[-1])]).expand()
          if "--conditioned-on" in argv else maxent.solve_benchmark(g))
    draws = sample_ensemble(pm, SampleSpec(count=4, seed=seed))
    expect = "".join(f"# seed={seed} sample={t}\n"
                     + "".join(f"{g.label(i)} {g.label(j)}\n"
                               for i, j in sorted(s.edges))
                     for t, s in enumerate(draws))
    capsys.readouterr()
    assert main(["sample", *argv, "--samples", "4"]) == EXIT_OK
    assert capsys.readouterr().out == expect
    outdir = tmp_path / "samples"
    assert main(["sample", *argv, "--samples", "4",
                 "--output-dir", str(outdir)]) == EXIT_OK
    assert "".join(p.read_text() for p in sorted(outdir.iterdir())) == expect


def test_sample_gathers_each_row_block_once_per_pass(tmp_path, monkeypatch):
    # ER(60, .03) in blocks of 1000 entries: 16 rows, so 4 blocks, and
    # passes of 1000 // (4 * 60 edges) = 4 seeds, so 10 samples take 3
    # passes, the last of 2 seeds, and 12 gathers of ClassSolution.rows,
    # where a gather per block and sample would make 40
    monkeypatch.setattr(sampling, "BLOCK_ELEMENTS", 1000)
    gathers = []
    rows = maxent.ClassSolution.rows

    def counted(sol, r0, r1):
        gathers.append((r0, r1))
        return rows(sol, r0, r1)

    monkeypatch.setattr(maxent.ClassSolution, "rows", counted)
    g = from_spec("er:60,0.03", seed=4)
    assert (g.n, g.m) == (60, 60)
    assert main(["sample", "--generate", "er:60,0.03", "--seed", "4",
                 "--samples", "10", "--output-dir", str(tmp_path)]) == EXIT_OK
    assert len(list(tmp_path.iterdir())) == 10
    blocks = [(0, 16), (16, 32), (32, 48), (48, 64)]
    assert gathers == blocks * 3


@pytest.mark.parametrize("flags", [
    ["--output", "x.txt"], ["--output=x.txt"], ["--format", "csv"],
    ["--format", "csv", "--output", "x.txt"],
])
def test_sample_rejects_artifact_flags(tmp_path, monkeypatch, capsys, flags):
    # sample writes to stdout or --output-dir only; --output is not taken
    # for a prefix of --output-dir
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--generate", "er:5,0.5", *flags])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sample_of_no_nodes_exits_config(tmp_path):
    assert main(["sample", "--generate", "er:0,0.5"]) == EXIT_CONFIG


def test_config_file_defaults_overridden_by_flags(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tolerance = 1e-6\nthreads = 2\n")
    out1 = tmp_path / "o1.json"
    assert main(["rank", "--generate", "er:10,0.4", "--seed", "1",
                 "--config", str(cfg), "--output", str(out1)]) == EXIT_OK
    out2 = tmp_path / "o2.json"
    assert main(["rank", "--generate", "er:10,0.4", "--seed", "1",
                 "--config", str(cfg), "--tolerance", "1e-12",
                 "--output", str(out2)]) == EXIT_OK
    assert json.loads(out1.read_text())["n"] == 10
    assert json.loads(out2.read_text())["n"] == 10

    # a flag beats the file: the file's cap of 1 iteration fails every
    # solve, and --max-iterations lifts it; the file's last line for a key
    # counts
    argv = ["rank", "--generate", "ba:20,2", "--seed", "1", "--config", str(cfg),
            "--output", str(out1)]
    cfg.write_text("max_iterations = 500\nmax_iterations = 1\n")
    assert main(argv) == EXIT_SOLVER
    assert main(argv + ["--max-iterations", "500"]) == EXIT_OK
    # the file beats $INFORANK_THREADS, which counts only where neither sets
    # the thread count
    monkeypatch.setenv("INFORANK_THREADS", "0")
    cfg.write_text("threads = 2\n")
    assert main(argv) == EXIT_OK
    cfg.write_text("tolerance = 1e-6\n")
    assert main(argv) == EXIT_CONFIG
    monkeypatch.delenv("INFORANK_THREADS")
    # directed = no in the file, and no flag, stays undirected; directed =
    # yes makes er directed, as --directed does
    spec = ["rank", "--generate", "er:10,0.4", "--seed", "1", "--config", str(cfg)]
    for value, directed in (("no", False), ("yes", True)):
        cfg.write_text(f"directed = {value}\n")
        assert main(spec + ["--output", str(out1)]) == EXIT_OK
        assert json.loads(out1.read_text())["directed"] is directed
    assert main(spec[:-2] + ["--directed", "--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()

    for bad in ("threads = x", "threads = 0", "tolerance = abc",
                "max_iterations = many", "directed = maybe", "tolerence = 1e-6"):
        cfg.write_text(bad + "\n")
        assert main(["rank", "--generate", "er:10,0.4", "--config", str(cfg),
                     "--output", str(out1)]) == EXIT_CONFIG
    # a value the file cannot cast, or a thread count below 1, exits 2 even
    # where a flag sets its key
    flags = ["--threads", "1", "--tolerance", "1e-8", "--max-iterations", "100",
             "--directed"]
    for bad in ("threads = x", "threads = 0", "tolerance = abc",
                "max_iterations = many", "directed = maybe"):
        cfg.write_text(bad + "\n")
        assert main(["rank", "--generate", "er:10,0.4", "--config", str(cfg),
                     "--output", str(out1), *flags]) == EXIT_CONFIG, bad


def test_threads_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("INFORANK_THREADS", "3")
    out = tmp_path / "env.json"
    assert main(["rank", "--generate", "er:10,0.4", "--seed", "2",
                 "--output", str(out)]) == EXIT_OK
    ref = tmp_path / "ref.json"
    monkeypatch.delenv("INFORANK_THREADS")
    assert main(["rank", "--generate", "er:10,0.4", "--seed", "2",
                 "--output", str(ref)]) == EXIT_OK
    assert out.read_bytes() == ref.read_bytes()

    argv = ["rank", "--generate", "er:10,0.4", "--output", str(out)]
    for value in ("abc", "0", "-3"):
        monkeypatch.setenv("INFORANK_THREADS", value)
        assert main(argv) == EXIT_CONFIG
    monkeypatch.delenv("INFORANK_THREADS")
    for value in ("0", "-3"):
        assert main(argv + ["--threads", value]) == EXIT_CONFIG


@pytest.mark.parametrize("argv", [
    ["accuracy", "--generate", "er:20,0.2", "--seed", "5", "--directed"],
    ["risk", "--generate", "scalefree:12,2", "--seed", "3", "--samples", "4"],
    ["rank", "--generate", "ba:40,3", "--seed", "1"],
])
def test_one_conditioned_solve_per_node(tmp_path, monkeypatch, argv):
    counts = count_solves(monkeypatch)
    code, out = run(tmp_path, *argv)
    assert code == EXIT_OK
    n = json.loads(out.read_text())["n"]
    # the benchmark system and each of the n conditioned systems, classified
    # and solved once
    assert counts["benchmark"] == 1 and counts["systems"] == n + 1
    assert counts["classes"] == n + 1
    assert sorted(counts["nodes"]) == list(range(n))


@pytest.mark.parametrize("argv", [
    ["rank", "--generate", "ba:60,3", "--seed", "1"],
    ["accuracy", "--generate", "ba:60,3", "--seed", "1"],
    ["rank", "--generate", "er:40,0.1", "--seed", "2", "--directed"],
    ["accuracy", "--generate", "er:40,0.1", "--seed", "2", "--directed"],
    ["compare", "--generate", "scalefree:30,2", "--seed", "3"],
    ["risk", "--generate", "scalefree:30,2", "--seed", "3", "--samples", "2"],
    ["sample", "--generate", "ba:60,3", "--seed", "1", "--samples", "3"],
    ["sample", "--generate", "scalefree:30,2", "--seed", "3",
     "--conditioned-on", "0", "--samples", "3"],
])
def test_commands_build_no_prob_matrix(tmp_path, monkeypatch, argv):
    # ranking and accuracy score every ensemble on its degree classes,
    # sample draws from them in row blocks and risk gathers each node's
    # link probabilities with ClassSolution.rows: none builds a ProbMatrix
    def refuse(sol):
        raise AssertionError("ProbMatrix built")
    monkeypatch.setattr(maxent.ClassSolution, "expand", refuse)
    code, _ = run(tmp_path, *argv)
    assert code == EXIT_OK


@pytest.mark.parametrize("argv, code", [
    (["rank", "--generate", "er:10,0.4", "--tolerance", "nan"], EXIT_CONFIG),
    (["rank", "--generate", "er:10,0.4", "--tolerance", "inf"], EXIT_CONFIG),
    (["rank", "--generate", "er:10,0.4", "--tolerance=-inf"], EXIT_CONFIG),
    (["risk", "--generate", "scalefree:12,2", "--sigma-a", "-1"], EXIT_CONFIG),
    (["risk", "--generate", "scalefree:12,2", "--sigma-l", "nan"], EXIT_CONFIG),
    (["risk", "--generate", "scalefree:12,2", "--sigma-a", "inf"], EXIT_CONFIG),
    (["risk", "--generate", "scalefree:12,2", "--mu-a", "inf"], EXIT_CONFIG),
    (["risk", "--generate", "scalefree:12,2", "--mu-l", "nan"], EXIT_CONFIG),
    (["risk", "--input", "WEIGHTS", "--directed"], EXIT_PARSE),
    (["sample", "--input", "EDGES", "--seed", "-1"], EXIT_CONFIG),
    (["risk", "--input", "EDGES", "--directed", "--seed", "-1"], EXIT_CONFIG),
    (["sample", "--generate", "er:10,0.4", "--seed", "-1"], EXIT_CONFIG),
    (["compare", "--generate", "er:10,0.4", "--alpha", "1.5"], EXIT_CONFIG),
    (["accuracy", "--generate", "er:10,0.4", "--alpha", "1.5"], EXIT_CONFIG),
    (["rank", "--generate", "ba:10,2", "--directed"], EXIT_CONFIG),
    (["rank", "--generate", "star:5", "--directed"], EXIT_CONFIG),
    (["rank", "--generate", "ring:10,2", "--directed"], EXIT_CONFIG),
    (["compare", "--generate", "er:10,0.4", "--measure", "inforank",
      "--alpha", "1.5"], EXIT_CONFIG),
    (["compare", "--generate", "er:10,0.4", "--measure", "degree",
      "--alpha", "nan"], EXIT_CONFIG),
    (["compare", "--generate", "er:10,0.4", "--measure", "closeness",
      "--alpha", "-0.1"], EXIT_CONFIG),
    (["sample", "--generate", "ba:60,3", "--samples", "0"], EXIT_CONFIG),
    (["sample", "--generate", "er:10,0.4", "--conditioned-on", "2",
      "--samples", "-1"], EXIT_CONFIG),
    (["rank", "--input", "NOT_UTF8"], EXIT_PARSE),
    (["sample", "--input", "NOT_UTF8"], EXIT_PARSE),
    (["rank", "--input", "EDGES", "--config", "NOT_UTF8_CONFIG"], EXIT_CONFIG),
    (["rank", "--input", "EDGES", "--config", "MISSING"], EXIT_CONFIG),
    (["rank", "--input", "EDGES", "--config", "DIRECTORY"], EXIT_CONFIG),
])
def test_bad_input_fails_before_any_solve(tmp_path, monkeypatch, argv, code):
    weights = tmp_path / "weights.txt"
    weights.write_text("a b 1.0\nb c nan\nc a 2.0\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\nc a\na d\nd b\n")
    not_utf8 = tmp_path / "latin1.edges"
    not_utf8.write_bytes(b"a b\n\xff c\n")
    not_utf8_config = tmp_path / "latin1.cfg"
    not_utf8_config.write_bytes(b"tolerance = 1e-6\n# r\xe9glages\n")
    counts = count_solves(monkeypatch)
    files = {"WEIGHTS": str(weights), "EDGES": str(edges),
             "NOT_UTF8": str(not_utf8), "NOT_UTF8_CONFIG": str(not_utf8_config),
             "MISSING": str(tmp_path / "missing.cfg"), "DIRECTORY": str(tmp_path)}
    argv = [files.get(arg, arg) for arg in argv]
    assert run(tmp_path, *argv)[0] == code
    assert counts == {"benchmark": 0, "classes": 0, "systems": 0, "nodes": []}


@pytest.mark.parametrize("name, reason", [("missing.cfg", "No such file or directory"),
                                          (".", "Is a directory")],
                         ids=["missing", "directory"])
def test_unreadable_config_names_the_file(tmp_path, capsys, name, reason):
    path = tmp_path / name
    code = main(["rank", "--generate", "er:5,0.5", "--config", str(path),
                 "--output", str(tmp_path / "out.json")])
    assert (code, capsys.readouterr().err) == (
        EXIT_CONFIG, f"error: cannot read config file {path}: {reason}\n")


@pytest.mark.parametrize("where", ["file", "stdin", "config"])
def test_undecodable_text_names_its_line(tmp_path, monkeypatch, capsys, where):
    # the bad byte sits on line 3001, past the first chunks a decoder reads
    lines = [f"n{i} n{i + 1}\n".encode() for i in range(3000)]
    data = b"".join(lines) + b"n0 \xe9t\xe9\n"
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"# r\xe9glages\n" if where == "config" else data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    argv = {"file": ["--input", str(bad)], "stdin": ["--input", "-"],
            "config": ["--generate", "er:5,0.5", "--config", str(bad)]}[where]
    code = main(["rank", *argv, "--output", str(tmp_path / "out.json")])
    name, line = ("config", 1) if where == "config" else ("input", 3001)
    assert (code, capsys.readouterr().err) == (
        EXIT_CONFIG if where == "config" else EXIT_PARSE,
        f"error: {name} line {line}: byte 0xe9 is not UTF-8\n")


def test_twelve_significant_digit_output(tmp_path):
    code, out = run(tmp_path, "rank", "--generate", "er:10,0.4", "--seed", "3")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    s0 = payload["S0"]
    assert s0 == float(f"{s0:.12g}")


SCIPY_PROBE = """
import sys
from inforank import maxent
from inforank.cli import main
pinned, real = [], maxent._pin_boundary
maxent._pin_boundary = lambda *args: pinned.append(1) or real(*args)
code = main(sys.argv[1:])
print(code, bool(pinned), any(m.split(".")[0] == "scipy" for m in sys.modules),
      *sorted(m for m in sys.modules if m.startswith("inforank.")))
"""

# the inforank modules a command loads: the parser's, then the layers it runs
PARSER = ("cli", "errors", "graphs", "maxent")
RANKING = (*PARSER, "entropy")
ACCURACY = (*RANKING, "centrality", "recon")


def probe_env() -> dict:
    """The environment of a child interpreter that imports inforank from
    this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.mark.parametrize("argv, pins, modules", [
    (["rank", "--generate", "star:5"], True, (*RANKING, "generators")),
    (["rank", "--generate", "er:40,0.1"], False, (*RANKING, "generators")),
    (["accuracy", "--generate", "star:9"], True, (*ACCURACY, "generators")),
    (["rank", "--input", "EDGES"], False, RANKING),
    (["compare", "--input", "EDGES"], False, ACCURACY),
    (["accuracy", "--input", "EDGES"], False, ACCURACY),
    (["sample", "--input", "EDGES"], False, (*PARSER, "sampling")),
    (["risk", "--input", "EDGES", "--directed", "--samples", "2"], False,
     (*RANKING, "clearing", "sampling")),
], ids=["rank-star-5", "rank-er-40", "accuracy-star-9", "rank-input",
        "compare-input", "accuracy-input", "sample-input", "risk-input"])
def test_scipy_never_loads(tmp_path, argv, pins, modules):
    # the boundary pins come in closed form: a star's saturated center pins
    # its leaves' pairs, an ER ranking pins none, and neither loads scipy;
    # each command loads the layers it runs and no other inforank module
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{i} {j}\n" for i, j in
                             sorted(from_spec("er:40,0.1", seed=0).edges)))
    out = (["--output-dir", str(tmp_path / "samples")] if argv[0] == "sample"
           else ["--output", str(tmp_path / "out.json")])
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE,
         *[str(edges) if arg == "EDGES" else arg for arg in argv], *out],
        capture_output=True, text=True, env=probe_env(), timeout=120)
    lines = ([f"wrote 1 samples to {tmp_path / 'samples'}"] if argv[0] == "sample"
             else [])
    lines.append(" ".join([str(EXIT_OK), str(pins), "False",
                           *sorted(f"inforank.{m}" for m in modules)]))
    assert proc.stdout == "".join(f"{line}\n" for line in lines), proc.stderr


BLAS_PROBE = """
import json, os, sys
before = dict(os.environ)
if sys.argv[1:] == ["numpy-first"]:
    import numpy
import inforank.cli
task = "/proc/self/task"
print(json.dumps([len(os.listdir(task)) if os.path.isdir(task) else None,
                  {k: v for k, v in os.environ.items() if before.get(k) != v}]))
"""


@pytest.mark.parametrize("blas_env, argv, threads, changed", [
    ({}, [], 1, {"OPENBLAS_NUM_THREADS": "1"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, [], 2, {}),
    ({"OMP_NUM_THREADS": "1"}, [], 1, {}),
    ({}, ["numpy-first"], None, {}),
], ids=["unset", "openblas-2", "omp-1", "numpy-first"])
def test_cli_holds_blas_to_one_thread_unless_set(blas_env, argv, threads, changed):
    # importing the CLI before numpy sets OPENBLAS_NUM_THREADS=1 when the
    # caller set no BLAS thread count, so OpenBLAS starts no worker thread;
    # a count the caller set, or numpy loaded first, leaves os.environ as
    # it was. The child's environment is built here, not inherited, so no
    # variable of the parent's can stand in for the one under test.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1", **blas_env}
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, diff = json.loads(proc.stdout)
    assert diff == changed
    if threads is not None:
        if count is None or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("a BLAS worker thread shows only on Linux with 2+ cores")
        assert count == threads


PACKAGE_PROBE = """
import sys
import inforank
print(*sorted(m for m in sys.modules if m.startswith("inforank.")))
"""

# the module that defines each public name of the package
PUBLIC = {
    "centrality": ["RankVector", "closeness_centrality", "degree_centrality",
                   "pagerank", "rescale"],
    "clearing": ["ClearingProblem", "ExternalsConfig", "PaymentVector",
                 "build_liabilities", "clear", "fit_trend",
                 "risk_error_experiment"],
    "entropy": ["EntropyReport", "approx_meanfield", "approx_sparse",
                "benchmark_entropy", "inforank", "inforank_subset"],
    "errors": ["GraphError", "InfoRankError", "InputError", "ParseError",
               "SolverError", "UndefinedIndexError"],
    "graphs": ["DegreeSeq", "Graph", "degree_sequence", "load_edge_list",
               "make_graph"],
    "maxent": ["FORCED_LIM", "FORCED_OBS", "FREE", "ParamVector", "ProbMatrix",
               "SolverOptions", "solve_benchmark", "solve_dbcm", "solve_ubcm"],
    "recon": ["AccuracyReport", "accuracy_report"],
    "sampling": ["SampleSpec", "sample_ensemble"],
}


def test_package_loads_each_name_on_first_use():
    # a fresh import loads no submodule; every public name is its defining
    # module's object, and `import *` binds all of them
    import inforank
    proc = subprocess.run([sys.executable, "-c", PACKAGE_PROBE],
                          capture_output=True, text=True, env=probe_env(),
                          timeout=120)
    assert proc.returncode == 0 and proc.stdout.split() == [], proc.stderr
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 42 and inforank.__all__ == names
    for module, public in PUBLIC.items():
        home = importlib.import_module(f"inforank.{module}")
        assert getattr(inforank, module) is home
        for name in public:
            assert getattr(inforank, name) is getattr(home, name)
            assert name in dir(inforank)
    bound = {}
    exec("from inforank import *", bound)
    assert sorted(set(bound) - {"__builtins__"}) == names
    with pytest.raises(AttributeError, match="no_such_name"):
        inforank.no_such_name


CLI_PROBE = """
import sys
from inforank.cli import main
code = main(sys.argv[1:])
sys.stderr.write(sys.stdout.encoding)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["rank", "--format", "csv", "--output", "out.csv"],
    ["rank", "--format", "csv"],
    ["sample", "--samples", "3", "--output-dir", "samples"],
], ids=["csv-file", "csv-stdout", "sample-files"])
def test_cli_texts_are_utf8_whatever_the_locale(tmp_path, argv):
    # a label and a config comment outside ASCII are read and written as
    # UTF-8 under an ASCII locale, byte for byte as under a UTF-8 one
    edges = "a b\nb \u00e9\n\u00e9 a\na d\nd b\nb e\ne \u00e9\n"
    (tmp_path / "edges.txt").write_bytes(edges.encode("utf-8"))
    (tmp_path / "run.cfg").write_bytes("# r\u00e9glages\nmax_iterations = 500\n"
                                       .encode("utf-8"))
    locales = {"utf-8": {"PYTHONUTF8": "1"},
               "ascii": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                         "PYTHONUTF8": "0"}}
    made = {}
    for encoding, env in locales.items():
        where = tmp_path / encoding
        where.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_PROBE, *argv, "--input", "../edges.txt",
             "--config", "../run.cfg"],
            capture_output=True, cwd=where, env={**probe_env(), **env},
            timeout=120)
        assert (proc.returncode, proc.stderr.decode()) == (EXIT_OK, encoding)
        made[encoding] = (proc.stdout, {str(p.relative_to(where)): p.read_bytes()
                                        for p in where.rglob("*") if p.is_file()})
    assert made["ascii"] == made["utf-8"]
    stdout, files = made["utf-8"]
    assert "\u00e9".encode("utf-8") in stdout + b"".join(files.values())
