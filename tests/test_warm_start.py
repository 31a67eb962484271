"""Warm-started engine runs against cold ones.

A warm run starts from reduction potentials and greedy shipments on the
tight cells instead of from zero flow.  At full mass it must give what a
cold run gives: the same shipped mass, cost and dual value, a plan and pair
that certify each other, and on infeasible instances the same min cut.  It
traces no profile, so reading one from it raises.
"""

import random
from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import modes
from kantgap.core import INF, scale_marginal
from kantgap.dual import dual_from_run
from kantgap.errors import PreconditionError
from kantgap.flow import _run_ssp, profile_from_run, truncation_ladder, value_from_run
from kantgap.modes import EXACT, FLOAT, arithmetic

SEEDS = range(600)
# the benchmark's transport sizes: (nx, ny, forbidden share, marginals)
TRANSPORT_SIZES = (
    (8, 9, 0.1, "uniform"),
    (11, 12, 0.5, "random"),
    (14, 15, 0.5, "uniform"),
    (18, 19, 0.1, "random"),
    (24, 23, 0.3, "random"),
)


def _instance(seed):
    """Small seeded instance.  Even seeds draw integer costs 0..2, so ties
    are everywhere; some seeds get zero-weight atoms, an all-forbidden row
    or an all-forbidden column."""
    rng = random.Random(seed)
    nx, ny = rng.randint(1, 7), rng.randint(1, 7)
    density = rng.choice((0, 0.1, 0.25, 0.4))

    def entry():
        if rng.random() < density:
            return INF
        if seed % 2 == 0:
            return rng.randint(0, 2)
        return F(rng.randint(0, 12), rng.randint(1, 8))

    rows = [[entry() for _ in range(ny)] for _ in range(nx)]
    if seed % 5 == 1:
        rows[rng.randrange(nx)] = [INF] * ny
    if seed % 7 == 2:
        j = rng.randrange(ny)
        for row in rows:
            row[j] = INF

    def marginal(n):
        w = [rng.randint(0, 4) for _ in range(n)]
        if seed % 3 == 0:
            w[rng.randrange(n)] = 0
        if not any(w):
            w[rng.randrange(n)] = 1
        return kg.make_marginal(kg.DiscreteSpace(n), [F(x, sum(w)) for x in w])

    return kg.make_cost_matrix(rows), marginal(nx), marginal(ny)


def _check_certificate(run, c, mu, nu):
    """The run's plan has marginals mu and nu on finite cells, its potentials
    have reduced cost >= 0 on every finite cell and 0 on the plan's support,
    and the dual objective equals the plan's cost, which is ``run.cost``."""
    u, v = run.final_potentials.u, run.final_potentials.v
    row_mass, col_mass, cost = [0] * c.nx, [0] * c.ny, 0
    for (i, j), m in run.flows.items():
        cij = c.rows[i][j]
        assert cij is not INF and m > 0
        assert modes.eq(cij - u[i] - v[j], 0)
        row_mass[i] += m
        col_mass[j] += m
        cost += cij * m
    for i, j, cij in c.finite_cells():
        assert modes.geq(cij - u[i] - v[j], 0)
    assert all(modes.eq(a, b) for a, b in zip(row_mass, mu.weights))
    assert all(modes.eq(a, b) for a, b in zip(col_mass, nu.weights))
    objective = sum(a * w for a, w in zip(u, mu.weights)) + sum(
        b * w for b, w in zip(v, nu.weights)
    )
    assert modes.eq(cost, run.cost)
    assert modes.eq(objective, run.cost)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_warm_run_matches_cold_run(mode):
    feasible = infeasible = brute = 0
    with arithmetic(mode):
        for seed in SEEDS:
            c, mu, nu = _instance(seed)
            cold = _run_ssp(c, mu, nu)
            warm = _run_ssp(c, mu, nu, warm=True)
            assert modes.eq(warm.shipped, cold.shipped)
            assert warm.full_mass is not None and cold.full_mass is None
            p = value_from_run(warm, 1)
            d = dual_from_run(warm)
            cold_d = dual_from_run(cold)
            if not modes.eq(cold.shipped, 1):
                infeasible += 1
                assert kg.is_inf(p) and kg.is_inf(d.value)
                # the source side of the minimal min cut is unique
                assert warm.reachable_rows == cold.reachable_rows
                assert warm.reachable_cols == cold.reachable_cols
                assert d.ray == cold_d.ray
                continue
            feasible += 1
            assert modes.eq(p, value_from_run(cold, 1))
            assert modes.eq(d.value, cold_d.value)
            assert modes.eq(d.value, p)
            _check_certificate(warm, c, mu, nu)
            if c.nx <= 4 and c.ny <= 4:
                brute += 1
                assert modes.eq(p, kg.brute_primal(c, mu, nu, 1))
    assert feasible >= 250 and infeasible >= 100 and brute >= 100


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_warm_run_is_not_a_profile(mode):
    with arithmetic(mode):
        for seed in range(60):
            c, mu, nu = _instance(seed)
            warm = _run_ssp(c, mu, nu, warm=True)
            assert warm.segments == []
            with pytest.raises(PreconditionError):
                profile_from_run(warm)
            with pytest.raises(PreconditionError):
                warm.segment_potentials(0)
            short = [0, modes.coerce(F(1, 2)), 2]
            if not modes.eq(warm.shipped, 1):
                short.append(warm.shipped)
            for m in short:
                with pytest.raises(PreconditionError):
                    value_from_run(warm, m)


def test_warm_start_needs_marginals_of_equal_mass():
    """The engine starts warm only on equal masses: asked for a warm start
    on unequal ones, it runs cold.  The ladder, which always starts warm,
    refuses them."""
    c, mu, nu = kg.example_diagonal(3)
    half = scale_marginal(nu, [F(1, 2)] * 3)
    assert _run_ssp(c, mu, half, warm=True).full_mass is None
    with pytest.raises(PreconditionError):
        truncation_ladder(c, mu, half, [1])
    assert kg.optimal_coupling_at(c, mu, half, F(1, 2)).mass == F(1, 2)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_warm_start_runs_fewer_searches(mode):
    small = [0, 0]
    transport = [0, 0]
    with arithmetic(mode):
        for seed in range(200):
            c, mu, nu = _instance(seed)
            cold, warm = _run_ssp(c, mu, nu), _run_ssp(c, mu, nu, warm=True)
            assert len(cold.segments) < cold.searches
            assert warm.searches <= cold.searches
            small[0] += cold.searches
            small[1] += warm.searches
        for seed in range(8):
            for nx, ny, density, kind in TRANSPORT_SIZES:
                c, mu, nu = kg.random_instance(nx, ny, density, kind, seed)
                cold, warm = _run_ssp(c, mu, nu), _run_ssp(c, mu, nu, warm=True)
                assert warm.searches <= cold.searches
                transport[0] += cold.searches
                transport[1] += warm.searches
    assert small[1] < small[0]
    assert transport[1] < transport[0]


def test_targeted_run_at_full_mass_is_the_warm_run():
    for seed in range(40):
        c, mu, nu = kg.random_instance(5, 6, 0.2, "random", seed)
        warm = _run_ssp(c, mu, nu, warm=True)
        if not modes.eq(warm.shipped, 1):
            continue
        pi = kg.optimal_coupling_at(c, mu, nu, 1)
        assert dict(pi.items()) == warm.flows


def test_a_warm_request_below_full_mass_runs_cold():
    # a greedy start could ship past a smaller target, so the engine runs cold
    c, mu, nu = kg.example_diagonal(3)
    run = _run_ssp(c, mu, nu, target=F(1, 3), warm=True)
    assert run.full_mass is None and run.shipped == F(1, 3)
    assert run.cost == kg.partial_value(c, mu, nu, F(2, 3))


def test_float_coupling_at_a_mass_both_marginals_round_to():
    # m is within the tolerance of both masses, which are not within it of
    # each other: the engine runs cold and the plan has mass m
    with arithmetic(FLOAT):
        c = kg.make_cost_matrix([[0, 1], [1, 0]])
        mu = kg.make_marginal(kg.DiscreteSpace(2), [0.5, 0.5])
        nu = kg.make_marginal(kg.DiscreteSpace(2), [0.5, 0.5 + 1.5e-9])
        m = 1 + 0.75e-9
        assert not modes.eq(mu.mass, nu.mass)
        pi = kg.optimal_coupling_at(c, mu, nu, m)
        assert modes.eq(pi.mass, m)
