"""Every postcondition check of the readers and the surgeries fires on a
doctored input.

The solvers never break these checks on their own, so each test feeds a
reader a run rebuilt with edited fields, or patches a helper, and asserts the
``PostconditionError`` text.
"""

from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import dual, flow, kellerer, relaxation
from kantgap.errors import PostconditionError
from kantgap.kellerer import cover_from_run, decompose_from_run, matching_run


def _doctored(run, **changes):
    """A new run with ``changes`` to its fields: a run is frozen."""
    return flow.SolverRun(**{**vars(run), **changes})


def _diag3_cells(pairs):
    _c, mu, nu = kg.example_diagonal(3)
    return kg.cellset_from_pairs(3, 3, pairs), mu, nu


def test_a_cut_that_misses_a_cell_is_no_cover():
    L, mu, nu = _diag3_cells([(0, 0), (1, 2)])
    run = matching_run(L, mu, nu)
    # every row reachable and no column: the cut holds no band
    run = _doctored(run, reachable_rows=frozenset(range(3)), reachable_cols=frozenset())
    with pytest.raises(PostconditionError, match="does not cover the cell set"):
        cover_from_run(run, L)


def test_a_cover_must_weigh_the_matching_mass():
    L, mu, nu = _diag3_cells([(0, 0), (1, 2)])
    run = matching_run(L, mu, nu)
    run = _doctored(run, shipped=run.shipped + F(1, 3))
    with pytest.raises(PostconditionError, match="does not match the matching mass"):
        cover_from_run(run, L)


def test_zero_matching_mass_needs_a_weightless_cover():
    L, mu, nu = _diag3_cells([(0, 0)])
    run = _doctored(matching_run(L, mu, nu), shipped=0)
    with pytest.raises(PostconditionError, match="weightless band cover"):
        decompose_from_run(run, L)


def test_a_charging_witness_must_charge_the_cell_set():
    # L sits on a weightless row, so the product coupling cannot charge it
    mu = kg.make_marginal(kg.DiscreteSpace(2), [1, 0])
    nu = kg.uniform_marginal(2)
    L = kg.cellset_from_pairs(2, 2, [(1, 0)])
    run = _doctored(matching_run(L, mu, nu), shipped=F(1, 2))
    with pytest.raises(PostconditionError, match="failed to charge the cell set"):
        decompose_from_run(run, L)


def test_a_charging_witness_must_be_a_full_coupling(monkeypatch):
    # the completion drops its last step, so a row and a column fall short
    steps = kellerer._deficit_steps
    monkeypatch.setattr(kellerer, "_deficit_steps", lambda run: steps(run)[:-1])
    L, mu, nu = _diag3_cells([(0, 0)])
    with pytest.raises(PostconditionError, match="not a full coupling of the marginals"):
        decompose_from_run(matching_run(L, mu, nu), L)


def test_a_charging_witness_must_put_the_matching_mass_on_the_cell_set():
    # the plan puts 2/3 on L; the run claims 1/3
    L, mu, nu = _diag3_cells([(0, 0), (1, 2)])
    run = _doctored(matching_run(L, mu, nu), shipped=F(1, 3))
    with pytest.raises(PostconditionError, match="mass on the cell set is not the matching"):
        decompose_from_run(run, L)


def test_a_ladder_step_must_ship_full_mass(monkeypatch):
    # a network that ships nothing
    monkeypatch.setattr(flow._Network, "warm_start", lambda self: None)
    monkeypatch.setattr(flow._Network, "augment", lambda self, target: None)
    c, mu, nu = kg.example_diagonal(3)
    with pytest.raises(PostconditionError, match="a truncated network shipped 0 of 1"):
        flow.truncation_ladder(c, mu, nu, [1])


def test_the_attaining_ladder_must_reach_the_relaxed_value(monkeypatch):
    # h is replaced by the zero matrix, whose truncated value is 0, not 1
    monkeypatch.setattr(dual, "truncate_cost", lambda c, h: kg.truncate_at(c, 0))
    c, mu, nu = kg.example_diagonal(3)
    with pytest.raises(PostconditionError, match="attainment ladder failed"):
        dual.attainment_check(c, mu, nu, [1, 2])


def test_the_certified_bound_must_reach_the_relaxed_value(monkeypatch):
    monkeypatch.setattr(dual, "truncate_at", lambda c, level: kg.truncate_at(c, 0))
    c, mu, nu = kg.example_diagonal(3)
    with pytest.raises(PostconditionError, match="certified bound failed"):
        dual.attainment_check(c, mu, nu, [1, 2])


def test_a_shrunk_plan_must_sit_below_the_marginals(monkeypatch):
    monkeypatch.setattr(relaxation, "dominates", lambda mu, sub: False)
    _c, mu, nu = kg.example_diagonal(3)
    pi = kg.product_coupling(mu, nu)
    with pytest.raises(PostconditionError, match="shrunk marginals must be dominated"):
        relaxation.shrink_to_partial(pi, mu, nu)
