import json
from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import modes, problem_io
from kantgap.cli import main
from kantgap.errors import InputError
from kantgap.primal import StudyRow


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
    # a bare list is neither: on a 2 x 2 grid the pairs [[0, 0], [1, 1]]
    # have a matrix's shape, and on a 3 x 2 grid pairs do too
    for doc, nx, ny in (
        ([[0, 1], [1, 0]], 2, 2),
        ([[0, 0], [1, 1]], 2, 2),
        ([[0, 1], [1, 0], [2, 1]], 3, 2),
        ([[0, 1]], 2, 2),
    ):
        with pytest.raises(InputError, match='needs "pairs" or "matrix"'):
            problem_io.load_cellset(doc, nx, ny)


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


def test_cli_profile_beyond_max_mass_prints_inf_exit0(diag3_file, capsys):
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


def test_cli_sweep(diag3_file, tmp_path, capsys):
    assert main(["sweep", diag3_file, "--m-grid", "1,2,3"]) == 0
    assert capsys.readouterr().out == "M,P_trunc\n1,1/3\n2,2/3\n3,1\n"
    # the sweep re-optimises level to level; its bytes are those of one
    # fresh solve per level, with INF cells, zero atoms and repeated levels
    c, mu, nu = kg.random_instance(9, 8, 0.3, "random", 4)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(problem_io.dump_problem(c, mu, nu)))
    finite = sorted({v for _, _, v in c.finite_cells()})
    levels = sorted([0, 0, F(1, 7), *finite[::3], finite[3], F(1, 2), 40])
    grid = [str(m) for m in levels]
    assert main(["sweep", str(path), "--m-grid", ",".join(grid)]) == 0
    expected = [(m, kg.primal_value(kg.truncate_at(c, m), mu, nu)) for m in levels]
    assert capsys.readouterr().out == problem_io.sweep_csv(expected)


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
    # truncated values come from one ladder over the sorted distinct levels;
    # rows keep the --m-grid order and equal one fresh solve per level
    for scenario in ("diagonal", "band"):
        args = [
            "study", "--scenario", scenario, "--n-list", "2,3,5",
            "--eps-grid", "0,1/n", "--m-grid", "100,2,1/2,2,0",
        ]
        assert main(args + ["-o", str(a)]) == 0
        family = kg.scenarios.family(scenario)
        rows = []
        for n in (2, 3, 5):
            c, mu, nu = family(n)
            p, d = kg.primal_value(c, mu, nu), kg.dual_value(c, mu, nu).value
            for eps in (0, F(1, n)):
                for m in (100, 2, F(1, 2), 2, 0):
                    trunc = kg.primal_value(kg.truncate_at(c, m), mu, nu)
                    partial = kg.partial_value(c, mu, nu, eps)
                    rows.append(StudyRow(n, eps, m, p, partial, trunc, d))
        assert a.read_text() == problem_io.study_csv(rows)


def test_cli_oracle(diag3_file, capsys):
    assert main(["oracle", diag3_file, "--mass", "5/6"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_cli_oracle_cover_matches_covers(diag3_file, tmp_path, capsys):
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"pairs": [[0, 1], [0, 2], [1, 2]]}))
    assert main(["covers", diag3_file, "--cells", str(cells)]) == 0
    m = json.loads(capsys.readouterr().out)["m"]
    assert main(["oracle", diag3_file, "--cover", str(cells)]) == 0
    assert capsys.readouterr().out == f"{m}\n"


def test_cli_gen_band(tmp_path, capsys):
    out = tmp_path / "band.json"
    assert main(["gen", "--scenario", "band", "--n", "4", "--bandwidth", "1",
                 "-o", str(out)]) == 0
    c, mu, nu = problem_io.load_problem_file(str(out))
    assert (c, mu, nu) == kg.closed_inf_band(4, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "{p}"],
        ["sweep", "{p}", "--m-grid", ""],
        ["study", "--n-list", "", "--eps-grid", "0", "--m-grid", "1"],
    ],
    ids=["oracle-no-question", "sweep-empty-grid", "study-empty-n-list"],
)
def test_cli_missing_question_exit1(argv, diag3_file, capsys):
    assert main([a.format(p=diag3_file) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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
# two 4,300-digit denominators, each within Python's digit limit; the
# answer's denominator, their product, is not
_P, _Q = "1" + "0" * 4298 + "1", "1" + "0" * 4298 + "3"
_WIDE = {"nx": 2, "ny": 2, "mu": ["1/2", "1/2"], "nu": ["1/2", "1/2"],
         "cost": [["1/" + _P, "inf"], ["inf", "1/" + _Q]]}
_CASES = [
    ("covers", {"pairs": [[1]]}),
    ("covers", {"pairs": 5}),
    ("covers", {"pairs": [["a", 0]]}),
    ("covers", {"pairs": [[1.5, 0]]}),
    ("covers", {"pairs": [[True, 0]]}),
    ("covers", {"matrix": [1, 2]}),
    ("covers", {"matrix": [["x", 0, 0], [0, 0, 0], [0, 0, 0]]}),
    ("covers", {"matrix": [[2, 0, 0], [0, 0, 0], [0, 0, 0]]}),
    ("covers", [[0, 0], [1, 1]]),
    ("covers", [[0, 1], [1, 0], [2, 1]]),
    ("problem", {"mu": ["abc"]}),
    ("problem", {"mu": ["1/0"]}),
    ("problem", {"mu": [True]}),
    ("problem", {"mu": [float("nan")]}),
    ("problem", {"nu": [float("inf")]}),
    ("problem", {"cost": [[float("inf")]]}),
    ("problem", {"cost": [[None]]}),
    ("problem", {"cost": 5}),
    ("problem", {"nx": "a"}),
    ("problem", {"nx": True}),
    ("problem", {"cost": [["1e10000000"]]}),
    ("problem", _WIDE),
    ("args", ["solve", "{p}", "--eps-grid", "x"]),
    ("args", ["sweep", "{p}", "--m-grid", "1/0"]),
    ("args", ["profile", "{p}", "--at", "abc"]),
    ("args", ["study", "--n-list", "a", "--eps-grid", "0", "--m-grid", "1"]),
    ("args", ["study", "--n-list", "2", "--eps-grid", "x/n", "--m-grid", "1"]),
] + [("args", argv) for argv, _ in _OUT_OF_RANGE]


@pytest.mark.parametrize("kind,data", _CASES, ids=[json.dumps(d)[:100] for _, d in _CASES])
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


# files that are no document of the expected shape: json cannot read the
# first three (nested too deeply, not UTF-8, an integer beyond the digit
# limit); the last two parse, but their root is not an object or lacks a key
_RAW_FILES = {
    "deep": b"[" * 100000,
    "latin-1": b'{"nx": 1, "ny": 1, "mu": ["\xe9"]}',
    "long-int": b'{"nx": ' + b"7" * 5000 + b"}",
    "list-root": b"[1, 2]",
    "missing-key": b'{"nx": 1, "ny": 1}',
}


@pytest.mark.parametrize("as_cells", [False, True], ids=["problem", "cells"])
@pytest.mark.parametrize("name", sorted(_RAW_FILES))
def test_cli_unreadable_json_exit1_without_traceback(name, as_cells, diag3_file, tmp_path, capsys):
    path = tmp_path / "raw.json"
    path.write_bytes(_RAW_FILES[name])
    argv = ["covers", diag3_file, "--cells", str(path)] if as_cells else ["solve", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_format_number_beyond_the_digit_limit():
    assert problem_io.format_number(F(1, 10**4299)) == "1/1" + "0" * 4299
    with pytest.raises(InputError, match="more than 4300 digits"):
        problem_io.format_number(F(1, 10**4300))


@pytest.mark.parametrize("argv,message", _OUT_OF_RANGE, ids=[" ".join(a) for a, _ in _OUT_OF_RANGE])
def test_cli_out_of_range_parameter_named(argv, message, diag3_file, capsys):
    assert main([a.replace("{p}", diag3_file) for a in argv]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("scenario", ["diagonal", "band"])
@pytest.mark.parametrize("n", ["0", "-2"])
def test_cli_study_reports_a_bad_size(scenario, n, capsys):
    argv = ["study", "--scenario", scenario, "--n-list", n, "--eps-grid", "1/n", "--m-grid", "1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: n must be >= 1\n"


@pytest.mark.parametrize("n", ["0", "-2"])
def test_cli_gen_band_reports_a_bad_size(n, capsys):
    assert main(["gen", "--scenario", "band", "--n", n]) == 1
    assert capsys.readouterr().err == "error: n must be >= 1\n"


# P sums the plan's cost and D the potentials' objective, in other orders:
# under --float these instances' two sums part in the last bits
_FLOAT_GAP = [
    {"nx": 2, "ny": 2, "mu": ["3/7", "4/7"], "nu": ["5/13", "8/13"],
     "cost": [["0", "2/5"], ["3", "2/7"]]},
    {"nx": 2, "ny": 2, "mu": ["6/7", "1/7"], "nu": ["4/7", "3/7"],
     "cost": [["11/4", "4/5"], ["5/4", "10/7"]]},
]


@pytest.mark.parametrize("doc", _FLOAT_GAP, ids=["P-below-D", "P-above-D"])
def test_cli_float_solve_prints_zero_gap_when_p_equals_d(doc, tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["--float", "solve", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["P"] != out["D"] and out["gap"] == "0.0"
    assert main(["--float", "solve", str(path)]) == 0
    text = capsys.readouterr().out.splitlines()
    assert text[0] == f"P={out['P']} D={out['D']} gap=0.0"


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


def test_cli_relaxed_dual_exit2_report_in_both_formats(tmp_path, capsys):
    # --format picks where the report goes: text on stderr, json on stdout
    path = tmp_path / "allinf.json"
    path.write_text(json.dumps({"nx": 1, "ny": 1, "mu": [1], "nu": [1], "cost": [["inf"]]}))
    assert main(["dual", str(path), "--relaxed"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("infeasible: no finite-cost full coupling")
    assert main(["dual", str(path), "--relaxed", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert list(json.loads(out)) == ["infeasible"] and err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--exact", "gen", "--scenario", "diagonal"],
        ["gen", "--scenario", "diagonal", "--format", "json"],
        ["study", "--n-list", "2", "--eps-grid", "0", "--m-grid", "1", "--format", "text"],
        ["solve", "p.json", "--format", "csv"],
        ["dual", "p.json", "--format", "csv"],
    ],
)
def test_cli_removed_options_exit2(argv, capsys):
    # --exact only restated the default; --format is gone where no output reads it
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags", [[], ["--float"]])
@pytest.mark.parametrize("where", ["mu", "cost"])
def test_cli_long_bad_token_one_short_error_line(tmp_path, flags, where):
    import os
    import subprocess
    import sys
    from pathlib import Path

    from kantgap import cli

    token = "7" * 5000 + "?"
    doc = {"nx": 2, "ny": 2, "mu": ["1/2", "1/2"], "nu": ["1/2", "1/2"],
           "cost": [["0", "1"], ["1", "0"]]}
    if where == "mu":
        doc["mu"][1] = token
    else:
        doc["cost"][1][0] = token
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "kantgap.cli", *flags, "solve", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: malformed number {token[:30]!r}\n"


def test_cli_float_masses_that_differ_exit_1(tmp_path, capsys):
    """Each float marginal weighs within the tolerance of 1, but they differ
    from each other by more, so no full coupling exists."""
    doc = {"nx": 2, "ny": 2, "mu": ["0.5", "0.5000000009"],
           "nu": ["0.5", "0.4999999991"], "cost": [["0", "1"], ["1", "0"]]}
    problem, cells = tmp_path / "p.json", tmp_path / "cells.json"
    problem.write_text(json.dumps(doc))
    cells.write_text(json.dumps({"pairs": [[0, 1]]}))
    for argv in (
        ["solve", str(problem)],
        ["sweep", str(problem), "--m-grid", "1"],
        ["covers", str(problem), "--cells", str(cells)],
    ):
        assert main(["--float", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: marginal masses differ: |mu| = 1.0000000009")
        assert "|nu| = 0.99999999" in captured.err
