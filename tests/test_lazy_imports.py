"""Modules load on first use: ``import kantgap`` loads no submodule, ``import
kantgap.cli`` loads only what most commands run, each command loads exactly
the modules it runs, and no kantgap module imports ``typing``.  Each check
runs in a fresh ``python -S`` process, since this one has loaded everything."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kantgap as kg
from kantgap import problem_io, scenarios
from kantgap.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src"
LAZY = (
    "kantgap.dual", "kantgap.kellerer", "kantgap.oracle", "kantgap.primal",
    "kantgap.relaxation", "kantgap.scenarios",
)
CLI = {"kantgap", "kantgap.cli", "kantgap.core", "kantgap.errors", "kantgap.flow",
       "kantgap.modes", "kantgap.problem_io"}

# each command's argv ({p}: a problem file, {c}: a cell-set file) and the
# modules it loads beyond CLI
COMMANDS = {
    "gen": ("gen --scenario diagonal --n 3", {"scenarios"}),
    "solve": ("solve {p}", {"dual", "primal"}),
    "profile": ("profile {p}", set()),
    "dual": ("dual {p}", {"dual", "primal"}),
    "sweep": ("sweep {p} --m-grid 1", {"primal"}),
    "covers": ("covers {p} --cells {c}", {"kellerer"}),
    "study": ("study --n-list 2 --eps-grid 1/n --m-grid 1", {"dual", "primal", "scenarios"}),
    "oracle": ("oracle {p} --mass 1", {"oracle"}),
    "oracle --cover": ("oracle {p} --cover {c}", {"kellerer", "oracle"}),
}

_RUN = """
import contextlib, io, json, sys
from kantgap.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "kantgap")]))
"""


def _fresh(code, *args):
    """The JSON that ``code`` prints in a fresh ``python -S`` process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_importing_the_cli_loads_no_lazy_module_and_no_typing():
    code = (
        "import json, sys, kantgap.cli; "
        f"print(json.dumps(sorted({{'typing', *{LAZY!r}}} & set(sys.modules))))"
    )
    assert _fresh(code) == []


def test_importing_the_package_loads_no_submodule():
    code = "import json, sys, kantgap; print(json.dumps([m for m in sys.modules if 'kantgap' in m]))"
    assert _fresh(code) == ["kantgap"]


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_exactly_the_modules_it_runs(command, tmp_path):
    argv, extra = COMMANDS[command]
    problem, cells = tmp_path / "p.json", tmp_path / "c.json"
    problem.write_text(json.dumps(problem_io.dump_problem(*kg.example_diagonal(4))))
    cells.write_text(json.dumps({"pairs": [[0, 1], [1, 2], [2, 3]]}))
    args = argv.format(p=problem, c=cells).split()
    code, loaded = _fresh(_RUN, *args)
    assert code == 0
    assert set(loaded) == CLI | {f"kantgap.{m}" for m in extra}


def test_star_import_binds_exactly_all():
    code = (
        "import json, kantgap; ns = {}; exec('from kantgap import *', ns); "
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), sorted(kantgap.__all__)]))"
    )
    bound, names = _fresh(code)
    assert bound == names
    assert len(names) == len(set(kg.__all__))
    assert {"CellSet", "brute_cover", "shrink_to_partial", "dual_value", "INF"} <= set(names)


def test_first_reads_from_many_threads_agree():
    code = """
import json, sys, threading
import kantgap as kg
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
seen, errors = [], []

def read():
    barrier.wait()
    try:
        seen.append((kg.CellSet, kg.dual_value, kg.example_diagonal, kg.scenarios))
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=read) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
from kantgap import dual, kellerer, scenarios
real = (kellerer.CellSet, dual.dual_value, scenarios.example_diagonal, scenarios)
print(json.dumps([errors, len(seen), all(all(a is b for a, b in zip(s, real)) for s in seen)]))
"""
    assert _fresh(code) == [[], 8, True]


def test_lazy_names_resolve_to_the_real_objects():
    from kantgap import CellSet, kellerer, oracle, relaxation

    assert kg.brute_cover is oracle.brute_cover
    assert CellSet is kellerer.CellSet
    assert kg.kellerer is sys.modules["kantgap.kellerer"]
    assert kg.shrink_to_partial is relaxation.shrink_to_partial
    assert {"CellSet", "brute_cover", "relaxation"} <= set(dir(kg))
    for name in kg.__all__:
        assert getattr(kg, name) is getattr(sys.modules[f"kantgap.{kg._LAZY_MODULE[name]}"], name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kg.no_such_name


def _choices(command):
    """The ``--scenario`` option of ``command``'s parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if "--scenario" in a.option_strings)


def test_scenario_choices_are_the_generators_names():
    assert _choices("gen").choices == (scenarios.DIAGONAL, scenarios.RANDOM, scenarios.BAND)
    study = _choices("study")
    assert study.choices == (scenarios.DIAGONAL, scenarios.BAND)
    assert study.default == scenarios.DIAGONAL
