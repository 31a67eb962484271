"""Each CLI command runs the flow engine a fixed number of times: one run
per instance, read for every answer it serves."""

import json
import sys

import pytest

import kantgap as kg
from kantgap import flow, problem_io
from kantgap.cli import main


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts calls of flow._run_ssp through every kantgap binding of it."""
    original = flow._run_ssp
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
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


def test_dual_runs_the_engine_once_and_relaxed_twice(tmp_path, engine_runs, capsys):
    feasible, infeasible = _feasible_and_infeasible(tmp_path)
    for path in (feasible, infeasible):
        del engine_runs[:]
        assert main(["dual", path]) == 0
        assert len(engine_runs) == 1
    del engine_runs[:]
    assert main(["dual", feasible, "--relaxed"]) == 0
    assert len(engine_runs) == 2
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
