import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mglab import cli


def run_cli(*argv):
    """In-process invocation capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_generate_serialization_and_determinism():
    code, out = run_cli("generate", "--model", "complete-k", "--n", "6", "--k", "3",
                        "--p", "0.5", "--seed", "7")
    assert code == 0
    assert out.splitlines()[0] == "n=6"
    for line in out.splitlines()[1:]:
        i, j, m = line.split()
        assert int(i) < int(j) and int(m) >= 1
    code2, out2 = run_cli("generate", "--model", "complete-k", "--n", "6", "--k", "3",
                          "--p", "0.5", "--seed", "7")
    assert out2 == out
    _, out3 = run_cli("generate", "--model", "complete-k", "--n", "6", "--k", "3",
                      "--p", "0.5", "--seed", "8")
    assert out3 != out


def test_generate_file_model(tmp_path):
    src = tmp_path / "h.txt"
    src.write_text("n=3\n1 2 3\n")
    out_path = tmp_path / "g.txt"
    code, _ = run_cli("generate", "--model", "file", "--hypergraph-file", str(src),
                      "--p", "1.0", "--seed", "1", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n=3" and len(lines) == 2


def test_generate_random_hypergraph_models():
    code, out = run_cli("generate", "--model", "uniform-hk", "--n", "6", "--k", "3",
                        "--m", "4", "--p", "1.0", "--seed", "3")
    assert code == 0
    assert sum(int(line.split()[2]) for line in out.splitlines()[1:]) == 4
    code, _ = run_cli("generate", "--model", "binomial-hk", "--n", "6", "--k", "3",
                      "--q", "0.5", "--p", "0.5", "--seed", "3")
    assert code == 0


def test_generate_missing_model_parameter():
    code, _ = run_cli("generate", "--model", "uniform-hk", "--n", "6", "--k", "3",
                      "--p", "0.5", "--seed", "3")
    assert code == cli.EXIT_INVALID


def test_exact_scalar_and_json():
    code, out = run_cli("exact", "--quantity", "expected-isolated", "--n", "10",
                        "--k", "3", "--p", "0.05")
    assert code == 0
    import mglab.analytics as A

    assert out.strip() == f"{A.expected_isolated(10, 3, 0.05):.12g}"

    code, out = run_cli("exact", "--quantity", "expected-isolated", "--n", "10",
                        "--k", "3", "--p", "0.05", "--json")
    payload = json.loads(out)
    assert payload["quantity"] == "expected-isolated"
    assert payload["params"]["n"] == 10
    assert payload["value"] == pytest.approx(A.expected_isolated(10, 3, 0.05))


def test_exact_vector_quantities():
    code, out = run_cli("exact", "--quantity", "chain-row", "--n", "5", "--p", "1.0")
    assert code == 0
    parts = [float(x) for x in out.split()]
    assert parts == pytest.approx([0.25, 7 / 12, 1 / 6, 0.0])

    code, out = run_cli("exact", "--quantity", "degree-law", "--n", "5", "--k", "3",
                        "--p", "0.5", "--json")
    payload = json.loads(out)
    assert sum(payload["value"]) == pytest.approx(1.0)
    assert len(payload["value"]) == math.comb(4, 2) + 1

    code, out = run_cli("exact", "--quantity", "degree-law", "--n", "5", "--k", "3",
                        "--p", "0.5", "--m", "4", "--json")
    assert json.loads(out)["params"]["m"] == 4

    code, out = run_cli("exact", "--quantity", "triangles-u3", "--n", "6", "--p", "0.5",
                        "--m", "10", "--json")
    assert json.loads(out)["value"] == pytest.approx(0.397440083813, abs=1e-9)


def test_exact_empty_prob_defaults_to_complete_driver():
    code, out = run_cli("exact", "--quantity", "empty-prob", "--n", "4", "--k", "3",
                        "--p", "0.5")
    assert float(out) == pytest.approx(0.5**4)


def test_exact_missing_parameter():
    code, _ = run_cli("exact", "--quantity", "triangles-u3", "--n", "6", "--p", "0.5")
    assert code == cli.EXIT_INVALID


@pytest.mark.parametrize("sizes", [
    ["--n", "47", "--k", "3"],
    ["--n", "400", "--k", "3"],
    ["--n", "21", "--k", "4"],
    ["--n", "21", "--k", "4", "--m", "100"],
])
def test_exact_degree_law_at_monte_carlo_sizes(sizes):
    code, out = run_cli("exact", "--quantity", "degree-law", *sizes, "--p", "0.5", "--json")
    assert code == 0
    assert sum(json.loads(out)["value"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["--quantity", "prob", "--predicate", "simple", "--model", "complete-k"],
    ["--quantity", "prob", "--predicate", "connected", "--model", "uniform-hk", "--m", "100"],
    ["--quantity", "triangles", "--model", "complete-k"],
    ["--quantity", "triangles", "--model", "uniform-hk", "--m", "50000"],
    ["--quantity", "pair-dist", "--model", "complete-k", "--i", "1", "--j", "2"],
    ["--quantity", "pair-dist", "--model", "uniform-hk", "--m", "487635", "--i", "1", "--j", "2"],
    ["--quantity", "prob", "--predicate", "connected", "--model", "binomial-hk", "--q", "1"],
    ["--quantity", "triangles", "--model", "binomial-hk", "--q", "0.5"],
    ["--quantity", "pair-dist", "--model", "binomial-hk", "--q", "1", "--i", "1", "--j", "2"],
])
def test_oracle_refuses_budget_before_building_driver(monkeypatch, argv):
    from mglab import experiments, hypergraph

    def refuse(*args, **kwargs):
        raise AssertionError("the driver was built")

    builders = ("complete_uniform", "uniform_hypergraph", "binomial_hypergraph")
    for module, name in [
        (experiments, "build_hypergraph"),
        *((experiments, name) for name in builders),
        *((hypergraph, name) for name in builders),
        (cli, "complete_uniform"),
        (cli, "uniform_hypergraph"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    code, out = run_cli("oracle", *argv, "--n", "60", "--k", "4", "--p", "0.5", "--budget", "10")
    assert code == cli.EXIT_BUDGET and out == ""
    # exact pair-law needs no driver either
    code, out = run_cli("exact", "--quantity", "pair-law", "--n", "3000", "--k", "3", "--p", "0.5")
    assert code == 0 and len(out.split()) == 2999


@pytest.mark.parametrize("argv", [
    ["--model", "complete-k", "--n", "60", "--k", "4", "--p", "0.000001"],
    ["--model", "uniform-hk", "--n", "60", "--k", "4", "--m", "400000", "--p", "0.00001"],
    ["--model", "binomial-hk", "--n", "60", "--k", "4", "--q", "0.9", "--p", "0.00001"],
])
def test_generate_above_dense_limit_builds_no_driver(monkeypatch, argv):
    from mglab import experiments

    def refuse(*args, **kwargs):
        raise AssertionError("the driver was built")

    monkeypatch.setattr(experiments, "build_hypergraph", refuse)
    code, out = run_cli("generate", *argv, "--seed", "4")
    assert code == 0 and out.splitlines()[0] == "n=60"
    assert sum(int(line.split()[2]) for line in out.splitlines()[1:]) <= 12
    code, out = run_cli("generate", *argv[:-1], "1.5")
    assert code == cli.EXIT_INVALID and out == ""


def test_oracle_json_and_budget():
    code, out = run_cli("oracle", "--quantity", "prob", "--predicate", "has-edge",
                        "--model", "complete-k", "--n", "4", "--k", "3", "--p", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1 - 0.5**4)
    assert payload["enumerated_states"] == 3**4 * 2**4

    code, _ = run_cli("oracle", "--quantity", "prob", "--predicate", "simple",
                      "--model", "complete-k", "--n", "8", "--k", "3", "--p", "0.5",
                      "--budget", "1000")
    assert code == cli.EXIT_BUDGET

    code, out = run_cli("oracle", "--quantity", "triangles", "--model", "complete-k",
                        "--n", "4", "--k", "3", "--p", "1.0")
    assert json.loads(out)["value"] == pytest.approx(4 / 9)

    code, out = run_cli("oracle", "--quantity", "pair-dist", "--model", "complete-k",
                        "--n", "4", "--k", "3", "--p", "1.0", "--i", "1", "--j", "2")
    assert json.loads(out)["value"] == pytest.approx([4 / 9, 4 / 9, 1 / 9])


def test_mc_inline_and_config(tmp_path):
    code, out = run_cli("mc", "--model", "complete-k", "--n", "5", "--k", "3",
                        "--p", "0.2,0.6", "--property", "has-edge",
                        "--trials", "200", "--seed", "9")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,successes,trials,")
    assert len(lines) == 3

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": "complete-k", "n": 5, "k": 3, "p": [0.2, 0.6],
        "property": "has-edge", "trials": 200, "seed": 9,
    }))
    code, out2 = run_cli("mc", "--config", str(cfg))
    assert code == 0 and out2 == out

    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "complete-k", "n": 5, "k": 3, "p": 0.2, "property": "has-edge", "trials": 1, "seed": 0, "spurious": true}')
    code, _ = run_cli("mc", "--config", str(bad))
    assert code == cli.EXIT_INVALID


def test_mc_multiplier_sweep():
    code, out = run_cli("mc", "--model", "complete-k", "--n", "30", "--k", "3",
                        "--scale", "logn2", "--c-list", "0.5,4",
                        "--property", "connected", "--trials", "150", "--seed", "2")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    ps = [float(r.split(",")[0]) for r in rows]
    assert ps == pytest.approx([0.5 * math.log(30) / 900, 4 * math.log(30) / 900])


def test_scan_subcommand(tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _ = run_cli("scan", "--property", "has-edge", "--scale", "invnk",
                      "--c-list", "0.5,2", "--n-list", "8,10", "--k", "3",
                      "--trials", "100", "--seed", "4", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 5


def test_couple_pass_and_fail(monkeypatch):
    code, out = run_cli("couple", "--p1", "0.05", "--p2", "0.3", "--n", "10",
                        "--k", "3", "--trials", "200", "--seed", "5")
    assert code == 0 and "PASS" in out

    from mglab import experiments as E

    def fake_check(h, p1, p2, trials, seed):
        return E.CouplingReport(trials=trials, p1=p1, p2=p2,
                                containment_failures=1, identical=0, frequencies={})

    monkeypatch.setattr(E, "coupling_check", fake_check)
    code, out = run_cli("couple", "--p1", "0.1", "--p2", "0.2", "--n", "8",
                        "--k", "3", "--trials", "10", "--seed", "5")
    assert code == cli.EXIT_FAILURE and "FAIL" in out


def test_invalid_probability_exits_2():
    code, _ = run_cli("generate", "--model", "complete-k", "--n", "5", "--k", "3",
                      "--p", "1.5", "--seed", "0")
    assert code == cli.EXIT_INVALID


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mglab.cli", "exact", "--quantity", "triangles-c4",
         "--n", "5", "--p", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(65 / 144)


# -- input surface ---------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["mc", "--model", "complete-k", "--n", "10", "--k", "3", "--p", "0.5",
     "--property", "pair-adjacent", "--i", "1", "--j", "99", "--trials", "5"],
    ["mc", "--model", "complete-k", "--n", "10", "--k", "3", "--p", "0.5",
     "--property", "pair-adjacent", "--i", "2", "--j", "2", "--trials", "5"],
    ["oracle", "--quantity", "prob", "--predicate", "pair-adjacent", "--model", "complete-k",
     "--n", "4", "--k", "3", "--p", "0.5", "--i", "1", "--j", "99"],
    ["oracle", "--quantity", "pair-dist", "--model", "complete-k", "--n", "4", "--k", "3",
     "--p", "0.5", "--i", "1", "--j", "99"],
    ["exact", "--quantity", "pair-law", "--n", "10", "--k", "3", "--p", "0.5", "--j", "99"],
])
def test_bad_vertex_pair_exits_2(argv, capsys):
    code, out = run_cli(*argv)
    assert code == cli.EXIT_INVALID and out == ""
    assert capsys.readouterr().err.count("\n") == 1


def test_file_model_checks_pair_against_file_vertex_count(tmp_path, capsys):
    # The file names 5 vertices; --n is not the graph's vertex count.
    path = tmp_path / "h.txt"
    path.write_text("n=5\n1 2 3\n1 4 5\n2 3 4\n")
    base = ["mc", "--model", "file", "--hypergraph-file", str(path), "--k", "3",
            "--p", "1", "--property", "pair-adjacent", "--trials", "300", "--seed", "1"]
    code, out = run_cli(*base, "--n", "3", "--i", "1", "--j", "4")
    assert code == 0
    assert 0 < int(out.splitlines()[1].split(",")[1]) < 300  # 1~4 only via {1,4,5}
    code, out = run_cli(*base, "--n", "10", "--i", "1", "--j", "7")
    assert code == cli.EXIT_INVALID and out == ""
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("model_args", [
    ["--model", "complete-k"],
    ["--model", "binomial-hk", "--q", "0.5"],
])
def test_rank_space_beyond_int64_exits_2(model_args):
    code, out = run_cli("mc", *model_args, "--n", "1000", "--k", "10", "--p", "1e-30",
                        "--property", "connected", "--trials", "2")
    assert code == cli.EXIT_INVALID and out == ""


@pytest.mark.parametrize("key, value", [("n", "10"), ("trials", 2.5), ("seed", True), ("p", ["0.1"])])
def test_mistyped_config_exits_2(tmp_path, key, value):
    data = {"model": "complete-k", "n": 10, "k": 3, "p": 0.1, "property": "simple",
            "trials": 3, "seed": 0}
    data[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out = run_cli("mc", "--config", str(cfg))
    assert code == cli.EXIT_INVALID and out == ""


def test_scan_accepts_triangle_count():
    code, out = run_cli("scan", "--property", "triangle-count", "--scale", "invnk1",
                        "--c-list", "0,1", "--n-list", "8", "--k", "3", "--trials", "50")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[5] for r in rows] == ["triangle-count"] * 2
    assert rows[0][7] == "0"  # c = 0 gives p = 0: no edges, no triangles


def test_property_names_come_from_the_one_table():
    from mglab import oracle
    from mglab.multigraph import PROPERTIES

    def choices(command):
        sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
        (action,) = [a for a in sub._actions if a.dest == "property"]
        return list(action.choices)

    assert choices("mc") == list(PROPERTIES)
    assert choices("scan") == [name for name, entry in PROPERTIES.items() if not entry.pair]
    for name in PROPERTIES:
        assert oracle.predicate_by_name(name, 1, 2).name.startswith(name)

    code, out = run_cli("couple", "--p1", "0.1", "--p2", "0.3", "--n", "8", "--k", "3",
                        "--trials", "20", "--seed", "1")
    reported = [line[2:line.index(")")] for line in out.splitlines() if line.startswith("P(")]
    assert reported == [name for name, entry in PROPERTIES.items() if entry.increasing]
    assert reported == ["has-edge", "connected", "no-isolated", "triangle-count"]


_MODEL_FLAGS = st.sampled_from([
    [], ["--q", "0.5"], ["--q", "1.5"], ["--q", "nan"], ["--m", "4"], ["--m", "-1"], ["--m", "500"],
])
_SIZES = st.one_of(st.tuples(st.integers(-1, 8), st.integers(-1, 6)), st.just((1000, 10)))
_PAIRS = st.one_of(st.tuples(st.integers(-1, 10), st.integers(-1, 10)), st.just((1, 99)))
_ODD = st.sampled_from([None, True, "10", 2.5, [1], -1])


@st.composite
def _argv(draw, driver):
    """A parseable argv over random models, sizes and vertex pairs."""
    n, k = draw(_SIZES)
    i, j = draw(_PAIRS)
    model = ["--model", draw(st.sampled_from(["complete-k", "binomial-hk", "uniform-hk", "file"])),
             "--hypergraph-file", driver, *draw(_MODEL_FLAGS)]
    sizes = ["--n", str(n), "--k", str(k)]
    pair = ["--i", str(i), "--j", str(j)]
    p = str(draw(st.sampled_from([0.0, 0.3, 1.0, 1.5])))
    big = draw(st.integers(-1, 400))
    law_flags = draw(_MODEL_FLAGS)
    prop = draw(st.sampled_from(["has-edge", "connected", "no-isolated", "triangle-count",
                                 "simple", "pair-adjacent"]))
    return draw(st.sampled_from([
        ["generate", *model, *sizes, "--p", p],
        ["mc", *model, *sizes, "--p", p, "--property", prop, *pair, "--trials", "3"],
        ["oracle", "--quantity", "prob", "--predicate", prop, *model, *sizes, *pair,
         "--p", p, "--budget", "5000"],
        ["oracle", "--quantity", "pair-dist", *model, *sizes, *pair, "--p", p],
        ["exact", "--quantity", "pair-law", *sizes, *pair, "--p", p],
        ["exact", "--quantity", "degree-law", "--n", str(big), "--k", str(k), *law_flags, "--p", p],
        # the triangles-u3 loop is cubic in n - 3
        ["exact", "--quantity", "triangles-u3", "--n", str(min(big, 60)), *law_flags, "--p", p],
    ]))


@st.composite
def _config(draw):
    """Config JSON text whose fields are valid, mistyped or missing at random."""
    data = {"model": draw(st.sampled_from(["complete-k", "uniform-hk", "nope"])),
            "n": draw(st.integers(1, 9)), "k": 3,
            "p": draw(st.sampled_from([0.2, [0.1, 0.4], {"scale": "invnk", "c": [1]},
                                       {"scale": ["x"], "c": [1]}, {"scale": "logn2", "c": ["a"]}])),
            "property": draw(st.sampled_from(["connected", "pair-adjacent", "girth"])),
            "trials": 2, "seed": 1, "m": 3, "i": 1, "j": draw(st.integers(0, 12))}
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=3)):
        if draw(st.booleans()):
            data.pop(key, None)
        else:
            data[key] = draw(_ODD)
    return json.dumps(data)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, data):
    # random models, sizes, pairs and configs: no traceback, only 0, 2 or 3
    work = tmp_path_factory.getbasetemp()
    driver = work / "driver.txt"
    driver.write_text("n=5\n1 2 3\n1 4 5\n2 3 4\n")
    if data.draw(st.booleans()):
        argv = data.draw(_argv(str(driver)))
    else:
        config = work / "fuzz.json"
        config.write_text(data.draw(_config()))
        argv = ["mc", "--config", str(config)]
    try:
        code, _ = run_cli(*argv)
    except SystemExit as exc:  # argparse rejecting a value
        code = exc.code
    assert code in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_BUDGET), argv
