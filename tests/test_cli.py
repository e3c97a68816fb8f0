import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from inforank import maxent
from inforank.cli import (EXIT_CONFIG, EXIT_OK, EXIT_PARSE, EXIT_SOLVER, main)


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--output", str(out)])
    return code, out


def count_solves(monkeypatch):
    """Count benchmark solves wherever inforank calls them, the class
    systems built and those that reach the fixed-point loops (one each per
    solve), and the nodes whose conditioned ensembles the conditioned pass
    hands out."""
    counts = {"benchmark": 0, "classes": 0, "systems": 0, "nodes": []}
    real_bench, real_each = maxent.solve_classes, maxent.solve_each_conditioned
    real_systems, real_classes = maxent._solve_systems, maxent._classes

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

    def classes(*args):
        counts["classes"] += 1
        return real_classes(*args)

    modules = [m for name, m in sys.modules.items()
               if name == "inforank" or name.startswith("inforank.")]
    for real, fake in ((real_bench, bench), (real_each, each)):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, fake)
    monkeypatch.setattr(maxent, "_solve_systems", systems)
    monkeypatch.setattr(maxent, "_classes", classes)
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


def test_rank_missing_file_exits_parse():
    assert main(["rank", "--input", "/no/such/file"]) == EXIT_PARSE


def test_rank_undefined_index_exits_solver(tmp_path):
    code, _ = run(tmp_path, "rank", "--generate", "er:4,1.0")
    assert code == EXIT_SOLVER


def test_bad_generator_spec_exits_config(tmp_path):
    for spec in ("nope:3", "er:-3,0.5", "ba:0,3"):
        code, _ = run(tmp_path, "rank", "--generate", spec)
        assert code == EXIT_CONFIG, spec


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


def test_config_file_defaults_overridden_by_flags(tmp_path):
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

    for bad in ("threads = x", "threads = 0", "tolerance = abc",
                "max_iterations = many"):
        cfg.write_text(bad + "\n")
        assert main(["rank", "--generate", "er:10,0.4", "--config", str(cfg),
                     "--output", str(out1)]) == EXIT_CONFIG


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


@pytest.mark.parametrize("argv, expansions", [
    (["rank", "--generate", "ba:60,3", "--seed", "1"], 0),
    (["accuracy", "--generate", "ba:60,3", "--seed", "1"], 0),
    (["rank", "--generate", "er:40,0.1", "--seed", "2", "--directed"], 0),
    (["accuracy", "--generate", "er:40,0.1", "--seed", "2", "--directed"], 0),
    (["compare", "--generate", "scalefree:30,2", "--seed", "3"], 0),
    (["risk", "--generate", "scalefree:30,2", "--seed", "3", "--samples", "2"],
     30),
])
def test_only_risk_expands_to_node_matrices(tmp_path, monkeypatch, argv,
                                             expansions):
    # ranking and accuracy score every ensemble on its degree classes; only
    # the risk scorer builds each node's n x n matrix, to sample from it
    calls = []
    expand = maxent.ClassSolution.expand
    monkeypatch.setattr(maxent.ClassSolution, "expand",
                        lambda sol: calls.append(sol) or expand(sol))
    code, out = run(tmp_path, *argv)
    assert code == EXIT_OK
    assert len(calls) == expansions
    assert all(sol.known.sum() == 1 for sol in calls)


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
])
def test_bad_input_fails_before_any_solve(tmp_path, monkeypatch, argv, code):
    weights = tmp_path / "weights.txt"
    weights.write_text("a b 1.0\nb c nan\nc a 2.0\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\nc a\na d\nd b\n")
    counts = count_solves(monkeypatch)
    files = {"WEIGHTS": str(weights), "EDGES": str(edges)}
    argv = [files.get(arg, arg) for arg in argv]
    assert run(tmp_path, *argv)[0] == code
    assert counts == {"benchmark": 0, "classes": 0, "systems": 0, "nodes": []}


def test_twelve_significant_digit_output(tmp_path):
    code, out = run(tmp_path, "rank", "--generate", "er:10,0.4", "--seed", "3")
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    s0 = payload["S0"]
    assert s0 == float(f"{s0:.12g}")


SCIPY_PROBE = """
import sys
from inforank.cli import main
code = main(sys.argv[1:])
print(code, any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


@pytest.mark.parametrize("spec, loaded", [("er:40,0.1", False), ("star:5", True)])
def test_scipy_loads_only_for_boundary_pins(tmp_path, spec, loaded):
    # scipy's maximum flow runs only on a tight cut: an ER ranking has none,
    # a star's saturated center does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, "rank", "--generate", spec,
         "--output", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.split() == [str(EXIT_OK), str(loaded)], proc.stderr
