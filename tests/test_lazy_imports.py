"""The modules that few commands need load on first use: ``import
kantgap.cli`` compiles neither ``kellerer``, ``oracle`` nor ``relaxation``,
and no kantgap module imports ``typing``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kantgap as kg

LAZY = ("kantgap.kellerer", "kantgap.oracle", "kantgap.relaxation")


def test_importing_the_cli_loads_no_lazy_module_and_no_typing():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import kantgap.cli, sys; "
        f"print(sorted({{'typing', *{LAZY!r}}} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_lazy_names_resolve_to_the_real_objects():
    from kantgap import CellSet, kellerer, oracle, relaxation

    assert kg.brute_cover is oracle.brute_cover
    assert CellSet is kellerer.CellSet
    assert kg.kellerer is sys.modules["kantgap.kellerer"]
    assert kg.shrink_to_partial is relaxation.shrink_to_partial
    assert {"CellSet", "brute_cover", "relaxation"} <= set(dir(kg))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        kg.no_such_name
