"""The readers of a run's engine-form numbers give what the checked
constructors give.

``SolverRun.plan`` builds the witness from the unscaled flows, and its
sums are derived from those entries when they are read;
``dual.dual_from_run`` sums the objective over the scaled potentials and
weights.  Both are compared here with ``make_coupling`` on the unscaled
flows and ``make_dual_pair`` on the lowered unscaled potentials: values,
their types, and in float mode the bits.
"""

from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import modes, scenarios
from kantgap.dual import dual_from_run
from kantgap.flow import _run_ssp
from kantgap.modes import EXACT, FLOAT, arithmetic
from kantgap.problem_io import format_number


def _shape(values):
    """Values down to their type and repr (a float's bits, a float zero's
    sign)."""
    return tuple((type(v), repr(v)) for v in values)


def _same_number(x, y):
    """Equal values in one form: the same float bits, or the same exact
    value, an int when integral."""
    if modes.is_exact():
        integral = F(x).denominator == 1
        return x == y and type(x) is (int if integral else F)
    return type(x) is type(y) and repr(x) == repr(y)


def _instances():
    """Random instances with fractional costs and weights (random marginals
    carry zero-weight atoms), feasible and infeasible, and family members."""
    for seed in range(30):
        nx, ny = 1 + seed % 7, 1 + (seed // 7) % 6
        kind = "random" if seed % 4 else "uniform"
        yield kg.random_instance(nx, ny, (0, 0.3, 0.6)[seed % 3], kind, seed)
    for n in (2, 5):
        yield scenarios.family(scenarios.DIAGONAL)(n)
        yield scenarios.family(scenarios.BAND)(n)


def _runs(c, mu, nu):
    yield _run_ssp(c, mu, nu)
    yield _run_ssp(c, mu, nu, warm=True)


def _plain_sums(space, entries, axis):
    """The marginal of ``entries`` along ``axis``, summed entry by entry in
    entry order and read by ``make_marginal``."""
    sums = [0] * space.size
    for ij, m in entries.items():
        sums[ij[axis]] += m
    return kg.make_marginal(space, sums)


def _check_plan(run, mu, nu):
    plan = run.plan()
    ref = kg.make_coupling(mu.space, nu.space, run.flows)
    assert plan == ref
    assert _shape(k for kv in plan.items() for k in kv) == _shape(
        k for kv in ref.items() for k in kv
    )
    for got, want, space, axis in (
        (plan.row_sums, ref.row_sums, mu.space, 0),
        (plan.col_sums, ref.col_sums, nu.space, 1),
    ):
        plain = _plain_sums(space, plan.entries, axis)
        assert _shape(got.weights) == _shape(want.weights) == _shape(plain.weights)
        assert _same_number(got.mass, want.mass) and _same_number(got.mass, plain.mass)
    assert _same_number(plan.mass, ref.mass)
    assert _same_number(plan.mass, sum(plan.entries.values(), 0))
    assert modes.eq(plan.mass, run.shipped)


def _lowered_pair(run, c, mu, nu):
    """``make_dual_pair`` on the run's unscaled final potentials, each
    weightless atom lowered to min(0, c - other) over its finite cells, rows
    first."""
    phi, psi = list(run.final_potentials.u), list(run.final_potentials.v)
    for i, w in enumerate(mu.weights):
        if w == 0:
            row = c.rows[i]
            phi[i] = min([0] + [row[j] - psi[j] for j in range(c.ny) if row[j] is not kg.INF])
    for j, w in enumerate(nu.weights):
        if w == 0:
            col = [row[j] for row in c.rows]
            psi[j] = min([0] + [col[i] - phi[i] for i in range(c.nx) if col[i] is not kg.INF])
    return kg.make_dual_pair(phi, psi, mu, nu)


def _check_pair(run, c, mu, nu):
    """The optimal pair against ``_lowered_pair``; True on an infeasible
    instance, whose base pair is ``make_dual_pair``'s own."""
    rep = dual_from_run(run)
    if kg.is_inf(rep.value):
        assert rep.pair == kg.make_dual_pair((0,) * c.nx, (0,) * c.ny, mu, nu)
        return True
    ref = _lowered_pair(run, c, mu, nu)
    assert _shape(rep.pair.phi) == _shape(ref.phi)
    assert _shape(rep.pair.psi) == _shape(ref.psi)
    assert _same_number(rep.pair.objective, ref.objective)
    assert format_number(rep.pair.objective) == format_number(ref.objective)
    assert rep.value is rep.pair.objective and modes.eq(rep.value, run.cost)
    return False


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_engine_form_readers_match_the_constructors(mode):
    scaled = infeasible = zero_atoms = 0
    with arithmetic(mode):
        for c, mu, nu in _instances():
            zero_atoms += 0 in mu.weights or 0 in nu.weights
            for run in _runs(c, mu, nu):
                scaled += run.lc != 1 and run.lw != 1
                _check_plan(run, mu, nu)
                infeasible += _check_pair(run, c, mu, nu)
            half = modes.div(run.shipped, 2)  # a targeted run below full mass
            _check_plan(_run_ssp(c, mu, nu, target=half), mu, nu)
    # the readers divided by both scales, on both kinds of instance
    assert (scaled > 20) == (mode == EXACT)
    assert infeasible > 5 and zero_atoms > 5


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_weightless_row_then_column_sharing_a_cell(mode):
    """Row 0 and column 1 are weightless and share the finite cell (0, 1).
    The cold run leaves row 0 unreached, its potential pushed down by
    every search, and its lowering on cell (0, 0) goes negative.
    ``_lowered_pair`` then lowers column 1 against the lowered row, rows
    first; the reader's one pass leaves the weightless row out of the
    column's minimum, and the two must agree."""
    with arithmetic(mode):
        c = kg.make_cost_matrix([["1/3", "2"], ["5/2", "7/4"]])
        mu = kg.make_marginal(kg.DiscreteSpace(2), ["0", "1"])
        nu = kg.make_marginal(kg.DiscreteSpace(2), ["1", "0"])
        cold, warm = _runs(c, mu, nu)
        for run in (cold, warm):
            assert not _check_pair(run, c, mu, nu)
        pair = dual_from_run(cold).pair
        engine = cold.final_potentials
        phi0 = modes.coerce("1/3") - engine.v[0]  # the row's least slack
        assert pair.phi[0] == phi0 < 0 and phi0 != engine.u[0]
        assert pair.psi[1] == 0 != engine.v[1]
        assert modes.eq(pair.objective, modes.coerce("5/2"))
