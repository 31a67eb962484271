"""A coupling is its entries: its row, column and total sums are derived
from them each time they are read.

No command reads them, so no CLI run sums a coupling.  A read does not
depend on the mode it happens in, except on a coupling with no entries,
whose zero is the mode's.
"""

import json
import threading
from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import problem_io, relaxation
from kantgap.cli import main
from kantgap.core import Coupling


def test_a_coupling_holds_only_its_spaces_and_entries():
    assert Coupling.__match_args__ == ("space_x", "space_y", "entries")
    x, y = kg.DiscreteSpace(2), kg.DiscreteSpace(1)
    pi = Coupling(x, y, {(0, 0): F(1, 3), (1, 0): F(2, 3)})
    assert pi == kg.make_coupling(x, y, {(1, 0): "2/3", (0, 0): "1/3"})
    assert pi != kg.make_coupling(x, y, {(0, 0): 1})
    assert repr(pi).startswith("Coupling(space_x=") and "row_sums" not in repr(pi)
    assert pi.row_sums.weights == (F(1, 3), F(2, 3)) and pi.col_sums.weights == (1,)
    assert type(pi.mass) is int and type(pi.col_sums.mass) is int


class _Reads(list):
    """The names of the sums read, in order; ``plans`` holds the coupling
    each one was read from."""

    def __init__(self):
        super().__init__()
        self.plans = []


@pytest.fixture
def spy(monkeypatch):
    """Counts every read of a coupling's sums."""
    reads = _Reads()
    for name in ("row_sums", "col_sums", "mass"):
        derived = getattr(Coupling, name).fget

        def counted(pi, name=name, derived=derived):
            reads.append(name)
            reads.plans.append(pi)
            return derived(pi)

        monkeypatch.setattr(Coupling, name, property(counted))
    return reads


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("mode", [[], ["--float"]], ids=["exact", "float"])
def test_no_command_sums_a_coupling(mode, spy, tmp_path, capsys):
    diag = _write(tmp_path / "diag.json", problem_io.dump_problem(*kg.example_diagonal(4)))
    rand = _write(
        tmp_path / "rand.json",
        problem_io.dump_problem(*kg.random_instance(5, 5, 0.2, "random", 7)),
    )
    cells = _write(tmp_path / "cells.json", {"pairs": [[0, 1], [1, 2], [2, 0], [3, 3]]})
    runs = [
        ["solve", diag],
        ["solve", rand, "--format", "json"],
        ["solve", rand, "--eps-grid", "1/4,1/2"],
        ["dual", diag, "--relaxed"],
        ["dual", rand, "--relaxed"],
        ["sweep", rand, "--m-grid", "0,1,2"],
        ["study", "--n-list", "2,3", "--eps-grid", "1/n", "--m-grid", "1"],
        ["study", "--scenario", "band", "--n-list", "4", "--eps-grid", "0", "--m-grid", "0,1"],
        ["covers", diag, "--cells", cells],
        ["covers", rand, "--cells", cells],
    ]
    for argv in runs:
        assert main(mode + argv) == 0, argv
    capsys.readouterr()
    assert spy == []
    # the spy sees a read
    kg.empty_coupling(kg.DiscreteSpace(1), kg.DiscreteSpace(1)).mass
    assert spy == ["mass"]


def test_a_shrink_sums_each_plan_once(spy):
    # each sum is a pass over the entries, so the surgery reads each once
    c, mu, nu = kg.example_diagonal(6)
    pi = kg.optimal_coupling_at(c, mu, nu, F(5, 6))
    assert spy == []
    shrunk = relaxation.shrink_to_partial(pi, mu, nu)
    for plan in (pi, shrunk):
        names = sorted(n for n, p in zip(spy, spy.plans) if p is plan)
        assert names == ["col_sums", "mass", "row_sums"]
    assert len(spy) == 6


def _shapes(pi):
    """Every sum of ``pi`` down to its type and repr (a float's bits)."""
    sums = (pi.row_sums, pi.col_sums)
    values = [pi.mass] + [m.mass for m in sums] + [w for m in sums for w in m.weights]
    return [(type(v), repr(v)) for v in values]


def test_float_sums_do_not_depend_on_where_they_are_read():
    entries = {(i % 4, (3 * i) % 5): 0.1 * (i + 1) / 3 for i in range(17)}
    with kg.arithmetic("float"):
        pi = kg.make_coupling(kg.DiscreteSpace(4), kg.DiscreteSpace(5), entries)
        inside = _shapes(pi)
    after = _shapes(pi)
    seen = []
    thread = threading.Thread(target=lambda: seen.append(_shapes(pi)))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert inside == after == seen[0]
    assert all(t is float for t, _ in inside)


@pytest.mark.parametrize("built", ["exact", "float"])
def test_an_empty_couplings_sums_are_the_zero_of_the_reading_mode(built):
    with kg.arithmetic(built):
        pi = kg.empty_coupling(kg.DiscreteSpace(2), kg.DiscreteSpace(3))
    for mode, zero in (("exact", 0), ("float", 0.0)):
        with kg.arithmetic(mode):
            assert set(_shapes(pi)) == {(type(zero), repr(zero))}
