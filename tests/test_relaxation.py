from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap.errors import DensityUndefinedError, DimensionMismatchError, InputError


@pytest.fixture
def diag3():
    return kg.example_diagonal(3)


def _scaled(pi, s):
    return kg.make_coupling(
        pi.space_x, pi.space_y, {ij: m * s for ij, m in pi.entries.items()}
    )


def test_shrink_identity_on_exact_coupling(diag3):
    c, mu, nu = diag3
    pi = kg.optimal_coupling_at(c, mu, nu, 1)
    assert kg.shrink_to_partial(pi, mu, nu) == pi


def test_shrink_half_density(diag3):
    c, mu, nu = diag3
    pi = _scaled(kg.optimal_coupling_at(c, mu, nu, 1), F(1, 2))
    sh = kg.shrink_to_partial(pi, mu, nu)
    # factor 1/((1 + 1/2)(1 + 1/2)) = 4/9 applied to mass 1/2
    assert sh.mass == F(2, 9)
    rows, cols = kg.coupling_marginals(sh)
    assert kg.dominates(mu, rows) and kg.dominates(nu, cols)


def test_shrink_jensen_bound_near_one():
    # marginals close to the targets keep most of the mass
    mu = kg.uniform_marginal(2)
    pi = kg.make_coupling(
        mu.space, mu.space, {(0, 0): F(9, 20), (1, 1): F(11, 20)}
    )
    sh = kg.shrink_to_partial(pi, mu, mu)
    gamma = F(1, 10)  # |f - 1|_L1 = |g - 1|_L1 here
    lower = (1 - gamma) / (1 + gamma / (1 - gamma)) ** 2
    assert sh.mass >= lower


def test_shrink_postconditions_random():
    import random

    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        _, mu, nu = kg.random_instance(n, n, 0, "random", seed)
        # random densities with matched masses
        f = [F(rng.randint(0, 3), 2) for _ in range(n)]
        fm = sum(a * w for a, w in zip(f, mu.weights))
        g = [F(rng.randint(1, 3), 2) for _ in range(n)]
        gm = sum(a * w for a, w in zip(g, nu.weights))
        if fm == 0 or gm == 0:
            continue
        g = [a * fm / gm for a in g]
        try:
            fmu = kg.make_marginal(mu.space, [a * w for a, w in zip(f, mu.weights)])
            gnu = kg.make_marginal(nu.space, [a * w for a, w in zip(g, nu.weights)])
        except Exception:
            continue
        pi = kg.product_coupling(fmu, gnu, 1 / fmu.mass) if fmu.mass else None
        if pi is None:
            continue
        sh = kg.shrink_to_partial(pi, mu, nu)  # postconditions assert inside
        assert sh.mass <= pi.mass
        rows, cols = kg.coupling_marginals(sh)
        assert kg.dominates(mu, rows) and kg.dominates(nu, cols)


def test_shrink_rejects_mass_on_weightless_atom():
    mu = kg.make_marginal(kg.DiscreteSpace(2), [1, 0])
    nu = kg.make_marginal(kg.DiscreteSpace(2), [F(1, 2), F(1, 2)])
    pi = kg.make_coupling(mu.space, nu.space, {(1, 0): F(1, 4)})
    with pytest.raises(DensityUndefinedError):
        kg.shrink_to_partial(pi, mu, nu)


def test_shrink_refuses_marginals_of_another_grid(diag3):
    _, mu, nu = diag3
    _, mu2, nu2 = kg.example_diagonal(2)
    with pytest.raises(DimensionMismatchError):
        kg.shrink_to_partial(kg.product_coupling(mu2, nu2), mu, nu)


def test_complete_partial_on_truncated_staircase(diag3):
    c, mu, nu = diag3
    c2 = kg.truncate_at(c, 2)
    part = kg.optimal_coupling_at(c2, mu, nu, F(2, 3))
    full = kg.complete_partial(part, mu, nu, cost=c2, bound=2)
    assert kg.is_full_coupling(full, mu, nu)
    assert kg.cost_of(c2, full) <= kg.cost_of(c2, part) + F(1, 3) * 2


def test_complete_partial_identity_when_full(diag3):
    c, mu, nu = diag3
    pi = kg.optimal_coupling_at(c, mu, nu, 1)
    assert kg.complete_partial(pi, mu, nu) is pi


def test_complete_partial_empty_gives_product(diag3):
    _, mu, nu = diag3
    empty = kg.empty_coupling(mu.space, nu.space)
    full = kg.complete_partial(empty, mu, nu)
    assert full == kg.product_coupling(mu, nu)


def test_complete_partial_rejects_nonpartial(diag3):
    _, mu, nu = diag3
    beyond = kg.make_coupling(mu.space, nu.space, {(0, 0): 1})
    with pytest.raises(InputError):
        kg.complete_partial(beyond, mu, nu)


def test_complete_partial_exact_marginals_random():
    for seed in range(40):
        c, mu, nu = kg.random_instance(4, 4, 0.2, "random", seed)
        prof = kg.solve_profile(c, mu, nu)
        m = prof.max_mass / 2
        part = kg.optimal_coupling_at(c, mu, nu, m)
        full = kg.complete_partial(part, mu, nu)
        assert kg.is_full_coupling(full, mu, nu)


def test_bounded_cost_bridge():
    # with every cell <= M: full value <= partial value at eps plus eps * M
    for seed in range(20):
        c, mu, nu = kg.random_instance(4, 4, 0, "uniform", seed)
        bound = c.max_finite()
        p = kg.primal_value(c, mu, nu)
        prof = kg.solve_profile(c, mu, nu)
        for eps in (F(1, 8), F(1, 4), F(1, 2)):
            p_eps = kg.evaluate_profile(prof, 1 - eps)
            assert p <= p_eps + eps * bound
            part = kg.optimal_coupling_at(c, mu, nu, 1 - eps)
            full = kg.complete_partial(part, mu, nu, cost=c, bound=bound)
            assert kg.cost_of(c, full) <= p_eps + eps * bound


def test_complete_rejects_unbounded_cost_claim(diag3):
    c, mu, nu = diag3  # has forbidden cells, so no cellwise bound exists
    part = kg.optimal_coupling_at(c, mu, nu, F(2, 3))
    with pytest.raises(InputError):
        kg.complete_partial(part, mu, nu, cost=c, bound=100)
