import json
from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import modes, problem_io
from kantgap.cli import main


@pytest.fixture
def diag3_file(tmp_path):
    c, mu, nu = kg.example_diagonal(3)
    path = tmp_path / "diag3.json"
    path.write_text(json.dumps(problem_io.dump_problem(c, mu, nu)))
    return str(path)


def test_problem_roundtrip():
    c, mu, nu = kg.example_diagonal(3)
    doc = problem_io.dump_problem(c, mu, nu)
    c2, mu2, nu2 = problem_io.load_problem(doc)
    assert c2 == c and mu2.weights == mu.weights and nu2.weights == nu.weights


def test_problem_accepts_numbers_and_strings():
    doc = {
        "nx": 2,
        "ny": 2,
        "mu": [0.5, "1/2"],
        "nu": ["1/4", "3/4"],
        "cost": [[1, "INF"], ["2/3", 0]],
    }
    c, mu, nu = problem_io.load_problem(doc)
    assert mu.weights == (F(1, 2), F(1, 2))
    assert nu.weights == (F(1, 4), F(3, 4))
    assert kg.is_inf(c[(0, 1)])
    assert c[(1, 0)] == F(2, 3)


def test_problem_rejects_bad_shapes():
    with pytest.raises(Exception):
        problem_io.load_problem({"nx": 2, "ny": 2, "mu": [1], "nu": [1, 0], "cost": []})


def test_cellset_loading_variants():
    L = problem_io.load_cellset({"pairs": [[0, 1], [1, 0]]}, 2, 2)
    assert set(L.cells()) == {(0, 1), (1, 0)}
    L2 = problem_io.load_cellset({"matrix": [[0, 1], [1, 0]]}, 2, 2)
    assert L2 == L
    # a bare list whose shape matches the grid reads as a matrix
    L3 = problem_io.load_cellset([[0, 1], [1, 0]], 2, 2)
    assert L3 == L
    # otherwise it reads as pairs
    L4 = problem_io.load_cellset([[0, 1]], 2, 2)
    assert set(L4.cells()) == {(0, 1)}


def test_format_number_tokens():
    assert problem_io.format_number(F(2, 3)) == "2/3"
    assert problem_io.format_number(F(4, 2)) == "2"
    assert problem_io.format_number(1) == "1"
    assert problem_io.format_number(kg.INF) == "inf"
    assert problem_io.format_number(kg.NEG_INF) == "-inf"


def test_cli_solve_text(diag3_file, capsys):
    assert main(["solve", diag3_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "P=1 D=1 gap=0"
    assert "pi[0,0]=1/3" in out


def test_cli_solve_json(diag3_file, capsys):
    assert main(["solve", diag3_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["P"] == "1" and doc["D"] == "1" and doc["gap"] == "0"


def test_cli_solve_with_eps_grid(diag3_file, capsys):
    assert main(["solve", diag3_file, "--eps-grid", "1/6,1/3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["P_eps"] == [["1/6", "1/2"], ["1/3", "0"]]


def test_cli_solve_all_infinite(tmp_path, capsys):
    path = tmp_path / "allinf.json"
    path.write_text(
        json.dumps(
            {
                "nx": 2,
                "ny": 2,
                "mu": ["1/2", "1/2"],
                "nu": ["1/2", "1/2"],
                "cost": [["inf", "inf"], ["inf", "inf"]],
            }
        )
    )
    assert main(["solve", str(path), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["P"] == "inf" and doc["D"] == "inf"


def test_cli_profile_csv(diag3_file, capsys):
    assert main(["profile", diag3_file]) == 0
    assert capsys.readouterr().out == "mass,cost\n0,0\n2/3,0\n1,1\n"


def test_cli_profile_at_infeasible_mass_exit2(diag3_file, capsys):
    code = main(["profile", diag3_file, "--at", "3/2"])
    assert code == 0  # beyond max mass is data: the value is inf
    assert capsys.readouterr().out.strip() == "inf"


def test_cli_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["gen", "--scenario", "diagonal", "--n", "10", "-o", str(out)]) == 0
    c, mu, nu = problem_io.load_problem(json.loads(out.read_text()))
    assert c.nx == 10 and mu.is_probability()
    assert main(["solve", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "P=1 D=1 gap=0"


def test_cli_gen_random_seeded(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--scenario", "random", "--nx", "4", "--ny", "4",
            "--inf-density", "0.3", "--seed", "9"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_dual_certificate(diag3_file, capsys):
    assert main(["dual", diag3_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasible"] is True
    assert doc["objective"] == "1"
    pair = kg.make_dual_pair(
        [problem_io.parse_potential(p) for p in doc["phi"]],
        [problem_io.parse_potential(p) for p in doc["psi"]],
        kg.uniform_marginal(3),
        kg.uniform_marginal(3),
    )
    c, _, _ = kg.example_diagonal(3)
    assert kg.verify_feasible(pair, c).ok


def test_dual_certificate_roundtrip_with_neg_inf():
    mu = kg.uniform_marginal(2)
    weightless = kg.make_marginal(kg.DiscreteSpace(2), [1, 0])
    pair = kg.make_dual_pair([0, kg.NEG_INF], [0, 0], weightless, mu)
    doc = problem_io.dual_certificate(pair, pair.objective, True)
    assert doc["phi"] == ["0", "-inf"]
    back = [problem_io.parse_potential(p) for p in doc["phi"]]
    assert back[1] is kg.NEG_INF


def test_cli_dual_relaxed(diag3_file, capsys):
    assert main(["dual", diag3_file, "--relaxed"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == "1"
    assert doc["chargeable"] == [[0, 0], [1, 1], [2, 2]]


def test_cli_sweep(diag3_file, capsys):
    assert main(["sweep", diag3_file, "--m-grid", "1,2,3"]) == 0
    assert capsys.readouterr().out == "M,P_trunc\n1,1/3\n2,2/3\n3,1\n"


def test_cli_covers(diag3_file, tmp_path, capsys):
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"pairs": [[0, 1], [0, 2], [1, 2]]}))
    assert main(["covers", diag3_file, "--cells", str(cells)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == "2/3"
    assert doc["max_mass"] == "2/3"
    assert doc["gamma"] == "1/2"
    assert doc["null_for_all_couplings"] is False


def test_cli_study_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "study", "--scenario", "diagonal", "--n-list", "2,3,4,5",
        "--eps-grid", "0,1/n", "--m-grid", "2,100",
    ]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "n,epsilon,M,P,P_eps,P_trunc,D"
    assert lines[1] == "2,0,2,1,1,1,1"


def test_cli_oracle(diag3_file, capsys):
    assert main(["oracle", diag3_file, "--mass", "5/6"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_cli_invalid_input_exit1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["solve", str(missing)]) == 1


_ONE = {"nx": 1, "ny": 1, "mu": ["1"], "nu": ["1"], "cost": [[0]]}
# parameters out of range, with the message that must name them
_OUT_OF_RANGE = [
    (["solve", "{p}", "--eps-grid", "-1"], "error: eps -1 outside [0, 1]\n"),
    (["solve", "{p}", "--eps-grid", "0,2"], "error: eps 2 outside [0, 1]\n"),
    (["sweep", "{p}", "--m-grid", "-1"], "error: truncation level -1 is negative\n"),
]
_CASES = [
    ("covers", {"pairs": [[1]]}),
    ("covers", {"pairs": 5}),
    ("covers", {"pairs": [["a", 0]]}),
    ("covers", {"pairs": [[1.5, 0]]}),
    ("covers", {"pairs": [[True, 0]]}),
    ("covers", {"matrix": [1, 2]}),
    ("covers", {"matrix": [["x", 0, 0], [0, 0, 0], [0, 0, 0]]}),
    ("covers", {"matrix": [[2, 0, 0], [0, 0, 0], [0, 0, 0]]}),
    ("problem", {"mu": ["abc"]}),
    ("problem", {"mu": ["1/0"]}),
    ("problem", {"mu": [True]}),
    ("problem", {"mu": [float("nan")]}),
    ("problem", {"nu": [float("inf")]}),
    ("problem", {"cost": [[float("inf")]]}),
    ("problem", {"cost": [[None]]}),
    ("problem", {"cost": 5}),
    ("problem", {"nx": "a"}),
    ("args", ["solve", "{p}", "--eps-grid", "x"]),
    ("args", ["sweep", "{p}", "--m-grid", "1/0"]),
    ("args", ["profile", "{p}", "--at", "abc"]),
    ("args", ["study", "--n-list", "a", "--eps-grid", "0", "--m-grid", "1"]),
    ("args", ["study", "--n-list", "2", "--eps-grid", "x/n", "--m-grid", "1"]),
] + [("args", argv) for argv, _ in _OUT_OF_RANGE]


@pytest.mark.parametrize("kind,data", _CASES, ids=[json.dumps(d) for _, d in _CASES])
def test_cli_malformed_input_exit1_without_traceback(kind, data, diag3_file, tmp_path, capsys):
    if kind == "covers":
        cells = tmp_path / "cells.json"
        cells.write_text(json.dumps(data))
        argv = ["covers", diag3_file, "--cells", str(cells)]
    elif kind == "problem":
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**_ONE, **data}))
        argv = ["solve", str(path)]
    else:
        argv = [a.replace("{p}", diag3_file) for a in data]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", _OUT_OF_RANGE, ids=[" ".join(a) for a, _ in _OUT_OF_RANGE])
def test_cli_out_of_range_parameter_named(argv, message, diag3_file, capsys):
    assert main([a.replace("{p}", diag3_file) for a in argv]) == 1
    assert capsys.readouterr().err == message


def test_cli_float_run_leaves_the_mode_exact(diag3_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_ONE, "mu": ["abc"]}))
    assert main(["--float", "solve", diag3_file]) == 0
    assert modes.get_mode() == modes.EXACT
    assert main(["--float", "solve", str(bad)]) == 1
    assert modes.get_mode() == modes.EXACT
    capsys.readouterr()


def test_cli_validation_error_exit1(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(
        json.dumps(
            {"nx": 1, "ny": 1, "mu": ["-1"], "nu": ["1"], "cost": [[0]]}
        )
    )
    assert main(["solve", str(path)]) == 1


def test_cli_pipeline_gen_solve_dual_consistent(tmp_path, capsys):
    prob = tmp_path / "p.json"
    assert main([
        "gen", "--scenario", "random", "--nx", "5", "--ny", "4",
        "--inf-density", "0.2", "--marginals", "random", "--seed", "31",
        "-o", str(prob),
    ]) == 0
    assert main(["solve", str(prob), "--format", "json"]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert main(["dual", str(prob)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["objective"] == solved["D"]
    assert cert["feasible"] is True
    assert solved["gap"] == "0"
    # witness entries reproduce P exactly
    c, mu, nu = problem_io.load_problem(json.loads(prob.read_text()))
    pi = kg.make_coupling(
        mu.space,
        nu.space,
        {(i, j): modes.coerce(m) for i, j, m in solved["witness"]},
    )
    assert kg.is_full_coupling(pi, mu, nu)
    assert problem_io.format_number(kg.cost_of(c, pi)) == solved["P"]


def test_cli_relaxed_dual_infeasible_exit2(tmp_path, capsys):
    path = tmp_path / "allinf.json"
    path.write_text(
        json.dumps(
            {
                "nx": 1,
                "ny": 1,
                "mu": ["1"],
                "nu": ["1"],
                "cost": [["inf"]],
            }
        )
    )
    code = main(["dual", str(path), "--relaxed", "--format", "json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert "infeasible" in doc


def test_cli_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    # main builds its parser once per process; interleaved calls, one of
    # them rejected by argparse, must print what fresh processes print
    import os
    import subprocess
    import sys
    from pathlib import Path

    from kantgap import cli

    c, mu, nu = kg.random_instance(5, 6, 0.2, "random", 11)
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(problem_io.dump_problem(c, mu, nu)))
    square = tmp_path / "sq.json"
    square.write_text(json.dumps(problem_io.dump_problem(kg.constant_matrix(5, 5, 0), mu, mu)))
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"pairs": [[0, 1], [3, 3], [4, 0]]}))
    argvs = [
        ["solve", str(problem), "--format", "json"],
        ["covers", str(square), "--cells", str(cells)],
        ["--float", "solve", str(problem), "--eps-grid", "1/5"],
        ["dual", str(problem), "--relaxed"],
        ["dual", str(problem), "--no-such-flag"],
    ]

    def in_process(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def fresh(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "kantgap.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return proc.returncode, proc.stdout, proc.stderr

    expected = [fresh(argv) for argv in argvs]
    assert expected[-1][0] == 2 and "--no-such-flag" in expected[-1][2]
    assert all(rc == 0 for rc, _out, _err in expected[:-1])
    for _ in range(2):
        assert [in_process(argv) for argv in argvs] == expected
    assert cli.build_parser() is cli.build_parser()
