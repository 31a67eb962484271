"""Each CLI command runs the flow engine a fixed number of times: one run
per instance, read for every answer it serves."""

import importlib
import json
import pkgutil
import sys
from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import flow, problem_io
from kantgap.cli import main
from kantgap.errors import NegativeWeightError, PreconditionError


@pytest.fixture
def engine_runs(monkeypatch):
    """Records calls of flow._run_ssp, as (args, kwargs), through every
    kantgap binding of it.  Modules load on first use, so every module of
    the package is imported first: a binding made after the patch would
    escape it."""
    for module in pkgutil.iter_modules(kg.__path__):
        importlib.import_module(f"kantgap.{module.name}")
    original = flow._run_ssp
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kantgap" and getattr(module, "_run_ssp", None) is original:
            monkeypatch.setattr(module, "_run_ssp", counted)
    return calls


def _write_problem(tmp_path, name, instance):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(problem_io.dump_problem(*instance)))
    return str(path)


def _feasible_and_infeasible(tmp_path):
    feasible = kg.random_instance(6, 7, 0.3, "random", 0)
    infeasible = kg.random_instance(6, 7, 0.3, "random", 1)
    assert not kg.is_inf(kg.primal_value(*feasible))
    assert kg.is_inf(kg.primal_value(*infeasible))
    return (
        _write_problem(tmp_path, "feasible", feasible),
        _write_problem(tmp_path, "infeasible", infeasible),
    )


@pytest.mark.parametrize("mode", [[], ["--float"]])
def test_solve_runs_the_engine_once(mode, tmp_path, engine_runs, capsys):
    for path in _feasible_and_infeasible(tmp_path):
        for fmt in ("json", "text"):
            del engine_runs[:]
            assert main(mode + ["solve", path, "--eps-grid", "0,1/4", "--format", fmt]) == 0
            assert len(engine_runs) == 1
    capsys.readouterr()


def test_dual_runs_the_engine_once(tmp_path, engine_runs, capsys):
    feasible, infeasible = _feasible_and_infeasible(tmp_path)
    for path in (feasible, infeasible):
        del engine_runs[:]
        assert main(["dual", path]) == 0
        assert len(engine_runs) == 1
    del engine_runs[:]
    assert main(["dual", feasible, "--relaxed"]) == 0
    assert len(engine_runs) == 1
    capsys.readouterr()


def test_covers_runs_the_engine_twice(tmp_path, engine_runs, capsys):
    _c, mu, _nu = kg.random_instance(5, 5, 0, "random", 3)
    path = _write_problem(tmp_path, "square", (kg.constant_matrix(5, 5, 0), mu, mu))
    for name, pairs in (("some", [[0, 1], [2, 2], [4, 0]]), ("none", [])):
        cells = tmp_path / f"{name}.cells.json"
        cells.write_text(json.dumps({"pairs": pairs}))
        del engine_runs[:]
        assert main(["covers", path, "--cells", str(cells)]) == 0
        assert len(engine_runs) == 2
    capsys.readouterr()


def test_only_full_mass_answers_start_warm(tmp_path, engine_runs, capsys):
    feasible, infeasible = _feasible_and_infeasible(tmp_path)
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"pairs": [[0, 1], [2, 2]]}))
    _c, mu, _nu = kg.random_instance(5, 5, 0, "random", 3)
    square = _write_problem(tmp_path, "square", (kg.constant_matrix(5, 5, 0), mu, mu))
    expected = [
        (["solve", feasible], [True]),
        (["solve", infeasible], [True]),
        (["--float", "solve", feasible], [True]),
        (["solve", feasible, "--eps-grid", "0"], [False]),
        (["dual", feasible], [True]),
        (["dual", infeasible], [True]),
        (["dual", feasible, "--relaxed"], [True]),
        (["profile", feasible], [False]),
        (["covers", feasible, "--cells", str(cells)], [True]),  # 6x7: no capacity run
        (["covers", square, "--cells", str(cells)], [True, True]),  # and the capacity run
        (["--float", "covers", square, "--cells", str(cells)], [True, True]),
    ]
    for argv, warm in expected:
        del engine_runs[:]
        assert main(argv) == 0
        assert [kwargs.get("warm", False) for _args, kwargs in engine_runs] == warm
    capsys.readouterr()


def test_full_mass_library_answers_run_warm_once(engine_runs):
    inst = kg.random_instance(6, 7, 0.3, "random", 0)
    expected = [
        (lambda: kg.relaxed_dual_value(*inst), [True]),
        (lambda: kg.chargeable_cells(*inst), [True]),
        (lambda: kg.primal_report(*inst), [True]),
        (lambda: kg.primal_report(*inst, eps_grid=[0, F(1, 4)]), [False]),
    ]
    for call, warm in expected:
        del engine_runs[:]
        call()
        assert [kwargs.get("warm", False) for _args, kwargs in engine_runs] == warm
    # the relaxed value comes from one warm run of the instance itself; the
    # later runs are the truncated instances
    del engine_runs[:]
    kg.attainment_check(*inst, [1, 2, 4])
    args, kwargs = engine_runs[0]
    assert args[0] is inst[0] and kwargs.get("warm") is True


def test_bad_input_is_rejected_before_any_engine_run(engine_runs):
    c, mu, nu = kg.example_diagonal(3)
    with pytest.raises(NegativeWeightError, match="^truncation level -1 is negative$"):
        kg.attainment_check(c, mu, nu, [-1, 2])
    half = kg.make_marginal(mu.space, [F(1, 6)] * 3)
    L = kg.cellset_from_pairs(3, 3, [(0, 0), (1, 2)])
    with pytest.raises(PreconditionError, match="^probability marginals required$"):
        kg.null_for_all_couplings(L, half, half)
    assert engine_runs == []


def test_solve_witness_is_the_targeted_optimal_coupling(tmp_path, capsys):
    checked = 0
    for seed in range(40):
        kind = ("uniform", "random")[seed % 2]
        inst = kg.random_instance(2 + seed % 7, 3 + seed % 5, 0.3, kind, seed)
        path = _write_problem(tmp_path, f"p{seed}", inst)
        assert main(["solve", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        if doc["P"] == "inf":
            continue
        expected = kg.optimal_coupling_at(*inst, 1)
        assert doc["witness"] == problem_io.coupling_entries(expected)
        checked += 1
    assert checked >= 25
