"""Float mode trades exactness for speed; identities hold to 1e-9."""

import pytest

import kantgap as kg
from kantgap import problem_io
from kantgap.errors import InputError
from kantgap.modes import FLOAT, arithmetic, coerce


@pytest.fixture(autouse=True)
def float_mode():
    with arithmetic(FLOAT):
        yield


def test_weights_become_floats():
    mu = kg.uniform_marginal(3)
    assert all(isinstance(w, float) for w in mu.weights)
    assert mu.is_probability()


@pytest.mark.parametrize("token", [True, "abc", "1/0", "1e400", None])
def test_parse_number_rejects_malformed_tokens(token):
    with pytest.raises(InputError):
        coerce(token)


def test_diagonal_values_within_tolerance():
    c, mu, nu = kg.example_diagonal(3)
    assert abs(kg.primal_value(c, mu, nu) - 1) <= 1e-9
    assert abs(kg.dual_value(c, mu, nu).value - 1) <= 1e-9
    assert abs(kg.partial_value(c, mu, nu, 1 / 3)) <= 1e-9


def test_profile_and_couplings():
    c, mu, nu = kg.example_diagonal(4)
    prof = kg.solve_profile(c, mu, nu)
    assert abs(prof.max_mass - 1) <= 1e-9
    pi = kg.optimal_coupling_at(c, mu, nu, 1)
    assert abs(kg.cost_of(c, pi) - 1) <= 1e-9


def test_random_no_gap_float():
    for seed in range(10):
        c, mu, nu = kg.random_instance(5, 5, 0.3, "random", seed)
        p = kg.primal_value(c, mu, nu)
        d = kg.dual_value(c, mu, nu).value
        if kg.is_inf(p):
            assert kg.is_inf(d)
        else:
            assert abs(p - d) <= 1e-9


def test_cover_functionals_float():
    mu = kg.uniform_marginal(3)
    L = kg.cellset_from_pairs(3, 3, [(i, i) for i in range(3)])
    v, _ = kg.cover_value(L, mu, mu)
    assert abs(v - 1) <= 1e-9
    gamma, f = kg.capacity_value(L, mu)
    assert abs(gamma - 0.5) <= 1e-9
    assert all(abs(v - 0.5) <= 1e-9 for v in f)


def test_shrink_and_complete_float():
    c, mu, nu = kg.example_diagonal(3)
    pi = kg.optimal_coupling_at(c, mu, nu, 1)
    half = kg.make_coupling(
        mu.space, nu.space, {ij: m / 2 for ij, m in pi.entries.items()}
    )
    sh = kg.shrink_to_partial(half, mu, nu)
    assert abs(sh.mass - 2 / 9) <= 1e-9
    part = kg.optimal_coupling_at(c, mu, nu, 2 / 3)
    full = kg.complete_partial(part, mu, nu)
    assert kg.is_full_coupling(full, mu, nu)


# Unit path costs near 3.09e8 whose slopes agree to 1.7e-9 relative: the
# absolute 1e-9 merge rule in ``_Network.augment`` keeps them apart, and the
# profile's own check then finds a slope over a segment of mass 6e-9 that is
# 0.52 below the one before.  Exact ``profile`` and ``--float solve
# --eps-grid`` answer on the same instance.
_BIG_SLOPES = {
    "nx": 6,
    "ny": 2,
    "mu": ["0.07445030615767953", "5.993566776517315e-09", "0.6585698768444164",
           "0.03075749331304951", "0.22688379962513322", "0.009338518066154414"],
    "nu": ["0.7699240874638774", "0.23007591253612267"],
    "cost": [["0.13676015630012883", "1.0034583078326866"],
             ["inf", "0.05672447759721482"],
             ["308808195.8476453", "0.0"],
             ["0.0", "inf"],
             ["183646465.08296588", "inf"],
             ["inf", "3.8184720974948076e-10"]],
}


@pytest.mark.xfail(
    strict=True,
    raises=InputError,
    reason="ROADMAP item 4: the absolute 1e-9 slope merge splits slopes near 3e8",
)
def test_profile_with_slopes_near_3e8():
    c, mu, nu = problem_io.load_problem(_BIG_SLOPES)
    assert kg.solve_profile(c, mu, nu).max_mass > 0
