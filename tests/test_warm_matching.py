"""Warm matching runs against cold ones.

The cover, the matching mass and the zero-mass dichotomy of a cell set L
read one engine run on L as a cost (0 on its cells, forbidden elsewhere),
and only its shipped mass and its min cut.  Every maximum flow ships the
same mass and leaves the same source side of the residual graph, so with
equal masses that run starts warm in either mode, and it must report what
a cold run does (in float mode the shipped mass within the tolerance).
Unequal masses run cold.
"""

import random
from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import modes
from kantgap.flow import _run_ssp
from kantgap.kellerer import matching_run
from kantgap.modes import EXACT, FLOAT, arithmetic

SEEDS = range(300)


def _case(seed, nu_scale=1):
    """A random cell set with random marginals of mass 1 and nu_scale, as
    raw Fractions; some atoms weigh nothing."""
    rng = random.Random(seed)
    nx, ny = rng.randint(1, 8), rng.randint(1, 8)
    density = rng.choice((0.1, 0.3, 0.6))
    pairs = [(i, j) for i in range(nx) for j in range(ny) if rng.random() < density]

    def weights(n, mass):
        w = [rng.randint(0, 5) for _ in range(n)]
        if not any(w):
            w[rng.randrange(n)] = 1
        return [F(x, sum(w)) * mass for x in w]

    return kg.cellset_from_pairs(nx, ny, pairs), weights(nx, 1), weights(ny, nu_scale)


def _marginals(mu, nu):
    return (
        kg.make_marginal(kg.DiscreteSpace(len(mu)), mu),
        kg.make_marginal(kg.DiscreteSpace(len(nu)), nu),
    )


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_warm_and_cold_matching_runs_agree(mode):
    warm_searches = cold_searches = 0
    with arithmetic(mode):
        for seed in SEEDS:
            L, mu, nu = _case(seed)
            mu, nu = _marginals(mu, nu)
            # L is its own cost: the engine reads the same cells and scale
            # as from the matrix of its 0/"inf" indicator, in value and type
            # (0 or 0.0)
            indicator = [[0 if flag else "inf" for flag in row] for row in L.rows]
            c = kg.make_cost_matrix(indicator)
            assert repr((L.scaled, L.lc)) == repr((c.scaled, c.lc))
            warm = _run_ssp(L, mu, nu, warm=True)
            cold = _run_ssp(L, mu, nu)
            # float mode adds the shipped mass up in another order
            assert modes.eq(warm.shipped, cold.shipped), seed
            assert warm.reachable_rows == cold.reachable_rows, seed
            assert warm.reachable_cols == cold.reachable_cols, seed
            plan = kg.make_coupling(mu.space, nu.space, warm.flows)
            assert all(ij in L for ij in plan.entries)
            assert kg.is_partial_coupling(plan, mu, nu)
            assert modes.eq(plan.mass, warm.shipped)
            warm_searches += warm.searches
            cold_searches += cold.searches
    # the greedy start ships a maximal matching before the first search
    assert 2 * warm_searches < cold_searches


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_only_exact_equal_masses_start_warm(mode):
    with arithmetic(mode):
        for nu_scale in (1, F(1, 2)):
            L, mu, nu = _case(7, nu_scale)
            warm = matching_run(L, *_marginals(mu, nu)).full_mass is not None
            assert warm == (nu_scale == 1)


def test_unequal_masses_run_cold_and_agree_with_brute_cover():
    for seed in SEEDS:
        L, mu, nu = _case(seed, F(1 + seed % 3, 4))
        mu, nu = _marginals(mu, nu)
        assert matching_run(L, mu, nu).full_mass is None
        value, cert = kg.cover_value(L, mu, nu)
        mass, plan = kg.max_mass_on(L, mu, nu)
        assert value == mass == cert.value == kg.brute_cover(L, mu, nu), seed
        assert all(ij in L for ij in plan.entries)
        assert kg.is_partial_coupling(plan, mu, nu) and plan.mass == mass


def test_equal_masses_agree_with_brute_cover():
    for seed in SEEDS:
        L, mu, nu = _case(seed)
        mu, nu = _marginals(mu, nu)
        value, cert = kg.cover_value(L, mu, nu)
        mass, plan = kg.max_mass_on(L, mu, nu)
        assert value == mass == cert.value == kg.brute_cover(L, mu, nu), seed
        assert kg.is_partial_coupling(plan, mu, nu) and plan.mass == mass
