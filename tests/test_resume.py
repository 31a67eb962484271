"""The engine's resumed search against the oracle and the certificates.

A search resumes after a shipment that fills only its column's sink arc
(``flow._Network.augment``), so one search can serve several shipments.  On
a hand-built instance it does, warm and cold.  On seeded tie-heavy
instances the values and breakpoints must be the oracle's, and each
segment's potentials must certify the plan at its breakpoint.
"""

import random
from fractions import Fraction as F

import kantgap as kg
from kantgap.core import INF
from kantgap.flow import _run_ssp, value_from_run
from kantgap.oracle import brute_primal


def _one_search_serves_three():
    """X_0 weighs nothing but prices Y_0, Y_1 and Y_3 at 0; X_1 holds the
    whole mass and reaches them at costs 1, 2 and 3, and the weightless Y_2
    at 0.  Warm, the greedy start ships nothing; warm or cold, one search
    then ships X_1's mass to Y_0, Y_1 and Y_3 in turn, each shipment filling
    only its column until the last empties X_1."""
    c = kg.make_cost_matrix([[0, 0, INF, 0], [1, 2, 0, 3]])
    mu = kg.make_marginal(kg.DiscreteSpace(2), [0, 1])
    nu = kg.make_marginal(kg.DiscreteSpace(4), [F(1, 3), F(1, 3), 0, F(1, 3)])
    return c, mu, nu


def test_one_search_serves_several_shipments():
    c, mu, nu = _one_search_serves_three()
    cold, warm = _run_ssp(c, mu, nu), _run_ssp(c, mu, nu, warm=True)
    for run in (cold, warm):
        # the second search finds no row with room
        assert (run.searches, run.shipments) == (2, 3)
        assert value_from_run(run, 1) == brute_primal(c, mu, nu, 1) == 2
        assert run.flows == {(1, 0): F(1, 3), (1, 1): F(1, 3), (1, 3): F(1, 3)}
    assert cold.breakpoints == kg.brute_profile(c, mu, nu)
    assert [cost for _, cost, _ in cold.segments] == [F(1, 3), 1, 2]


def _tie_heavy(seed):
    """Integer costs 0..3 on sides 1..7, with a quarter of the cells
    forbidden and zero-weight atoms allowed: ties everywhere, and some
    instances infeasible."""
    rng = random.Random(seed)
    nx, ny = rng.randint(1, 7), rng.randint(1, 7)
    rows = [[rng.randint(0, 3) for _ in range(ny)] for _ in range(nx)]
    for n in rng.sample(range(nx * ny), nx * ny // 4):
        rows[n // ny][n % ny] = INF

    def marginal(n):
        w = [rng.randint(0, 3) for _ in range(n)]
        if not any(w):
            w[rng.randrange(n)] = 1
        return kg.make_marginal(kg.DiscreteSpace(n), [F(x, sum(w)) for x in w])

    return kg.make_cost_matrix(rows), marginal(nx), marginal(ny)


def test_resumed_searches_match_the_oracle_and_certify_each_segment():
    resumed = brute = 0
    for seed in range(300):
        c, mu, nu = _tie_heavy(seed)
        cold, warm = _run_ssp(c, mu, nu), _run_ssp(c, mu, nu, warm=True)
        # without resumption a run ends with one search more than it ships
        resumed += cold.searches <= cold.shipments
        assert len(cold.segments) <= cold.shipments
        assert warm.shipped == cold.shipped
        assert value_from_run(warm, 1) == value_from_run(cold, 1)
        if c.nx <= 4 and c.ny <= 4:
            brute += 1
            assert cold.breakpoints == kg.brute_profile(c, mu, nu)
            assert value_from_run(warm, 1) == brute_primal(c, mu, nu, 1)
        for k, (mass, cost, _snapshot) in enumerate(cold.segments):
            pots = cold.segment_potentials(k)
            for i, j, cij in c.finite_cells():
                assert cij - pots.u[i] - pots.v[j] >= 0
            plan = _run_ssp(c, mu, nu, target=mass)
            assert (plan.shipped, plan.cost) == (mass, cost)
            for i, j in plan.flows:
                assert c.rows[i][j] == pots.u[i] + pots.v[j]
    assert resumed >= 200 and brute >= 100
