"""Every input check of the library raises its own class with its own
message.  Each case below reaches a check that no other test reaches."""

from decimal import Decimal

import pytest

import kantgap as kg
from kantgap import modes, problem_io, scenarios
from kantgap.errors import (
    DeficitMismatchError,
    DimensionMismatchError,
    InputError,
    NegativeWeightError,
    NotSquareError,
    PreconditionError,
)

_S2, _S3 = kg.DiscreteSpace(2), kg.DiscreteSpace(3)


def _uniform2():
    return kg.uniform_marginal(2)


def _diag2():
    return kg.example_diagonal(2)


def _cells2():
    return kg.cellset_from_pairs(2, 2, [(0, 0)])


def _enter(mode):
    with modes.arithmetic(mode):
        pass


def _infeasible_j():
    c, mu, nu = _diag2()
    pi = kg.make_coupling(_S2, _S2, {(0, 0): "1/2", (1, 1): "1/2"})
    return kg.j_functional(kg.make_dual_pair((5, 0), (0, 0), mu, nu), pi, c)


def _float_overflow():
    with modes.arithmetic(modes.FLOAT):
        big = kg.make_marginal(kg.DiscreteSpace(1), [1e200])
        return kg.product_coupling(big, big)


def _float_nan():
    with modes.arithmetic(modes.FLOAT):
        return modes.coerce(Decimal("nan"))


def _deficit_mismatch():
    one = kg.DiscreteSpace(1)
    mu, nu = kg.make_marginal(one, [1]), kg.make_marginal(one, ["1/2"])
    return kg.complete_partial(kg.empty_coupling(one, one), mu, nu)


_CASES = [
    ("scale_marginal length", lambda: kg.core.scale_marginal(_uniform2(), [1]),
     DimensionMismatchError, "density length does not match the space"),
    ("scale_marginal negative density",
     lambda: kg.core.scale_marginal(_uniform2(), [1, -1]),
     NegativeWeightError, "density -1 at atom 1 is negative"),
    ("make_cost_matrix no rows", lambda: kg.make_cost_matrix([]),
     InputError, "cost matrix needs at least one row"),
    ("make_cost_matrix no columns", lambda: kg.make_cost_matrix([[]]),
     InputError, "cost matrix needs at least one column"),
    ("truncate_at negative level", lambda: kg.truncate_at(_diag2()[0], -1),
     NegativeWeightError, "truncation level -1 is negative"),
    ("make_coupling cell off the grid", lambda: kg.make_coupling(_S2, _S2, {(2, 0): 1}),
     DimensionMismatchError, "cell (2, 0) outside the grid"),
    ("make_coupling negative mass", lambda: kg.make_coupling(_S2, _S2, {(0, 1): -1}),
     NegativeWeightError, "coupling mass -1 at (0, 1)"),
    ("product_coupling float overflow", _float_overflow,
     InputError, "the product coupling at scale 1.0 overflows a float"),
    ("add_couplings different grids",
     lambda: kg.add_couplings(kg.empty_coupling(_S2, _S2), kg.empty_coupling(_S2, _S3)),
     DimensionMismatchError, "couplings live on different grids"),
    ("make_dual_pair lengths", lambda: kg.make_dual_pair([0], [0, 0], _uniform2(), _uniform2()),
     InputError, "potential lengths do not match the spaces"),
    ("j_functional infeasible pair", _infeasible_j,
     PreconditionError, "pair is infeasible at cell (0, 0)"),
    ("flow instance shape",
     lambda: kg.solve_profile(_diag2()[0], kg.uniform_marginal(3), _uniform2()),
     DimensionMismatchError, "grid does not match the marginals"),
    ("truncation_ladder matrix level shape",
     lambda: kg.truncation_sweep(*_diag2(), [kg.make_cost_matrix([[1]])]),
     DimensionMismatchError, "cost matrices have different shapes"),
    ("optimal_coupling_at negative mass", lambda: kg.optimal_coupling_at(*_diag2(), -1),
     InputError, "mass -1 is negative"),
    ("cellset_from_pairs cell off the grid", lambda: kg.cellset_from_pairs(3, 3, [(3, 0)]),
     InputError, "cell (3, 0) outside a 3x3 grid"),
    ("cellset_from_matrix ragged", lambda: kg.cellset_from_matrix([[1, 0], [1]]),
     DimensionMismatchError, "ragged cell-set matrix"),
    ("capacity_value marginal size", lambda: kg.capacity_value(_cells2(), kg.uniform_marginal(3)),
     NotSquareError, "capacity needs one shared marginal on the square"),
    ("arithmetic unknown mode", lambda: _enter("decimal"),
     ValueError, "unknown arithmetic mode 'decimal'"),
    ("float coerce Decimal nan", _float_nan,
     InputError, "non-finite number Decimal('NaN')"),
    ("load_cellset matrix shape", lambda: problem_io.load_cellset({"matrix": [[1, 0]]}, 2, 2),
     InputError, "cell-set matrix does not match the problem grid"),
    ("complete_partial deficit mismatch", _deficit_mismatch,
     DeficitMismatchError, "row deficit 1 differs from column deficit 1/2"),
    ("random_instance inf_density", lambda: kg.random_instance(2, 2, 1.5),
     InputError, "inf_density must lie in [0, 1]"),
    ("random_instance sizes", lambda: kg.random_instance(0, 2),
     InputError, "sizes must be >= 1"),
    ("random_instance marginal kind", lambda: kg.random_instance(2, 2, 0.0, "zipf"),
     InputError, "unknown marginal kind 'zipf'"),
    ("closed_inf_band negative bandwidth", lambda: kg.closed_inf_band(3, -1),
     InputError, "bandwidth must be >= 0"),
    ("scenarios unknown family", lambda: scenarios.family("spiral"),
     InputError, "unknown scenario family 'spiral'"),
    ("brute_cover shape", lambda: kg.brute_cover(_cells2(), kg.uniform_marginal(3), _uniform2()),
     InputError, "cell set does not match the marginals"),
    ("brute_capacity shape",
     lambda: kg.brute_capacity(kg.cellset_from_pairs(2, 3, [(0, 0)]), _uniform2()),
     NotSquareError, "capacity needs a square cell set and one marginal"),
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in _CASES], ids=[c[0] for c in _CASES])
def test_input_check_raises_its_class_and_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
