from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import scenarios
from kantgap.errors import InputError


def test_diagonal_structure():
    c, mu, nu = kg.example_diagonal(4)
    assert mu.weights == (F(1, 4),) * 4
    for i in range(4):
        for j in range(4):
            if j < i:
                assert c[(i, j)] == 0
            elif j == i:
                assert c[(i, j)] == 1
            else:
                assert kg.is_inf(c[(i, j)])


def test_diagonal_n1():
    c, mu, nu = kg.example_diagonal(1)
    assert c[(0, 0)] == 1
    assert kg.primal_value(c, mu, nu) == 1


def test_diagonal_rejects_bad_n():
    with pytest.raises(InputError):
        kg.example_diagonal(0)


def test_diagonal_values_n3():
    c, mu, nu = kg.example_diagonal(3)
    assert kg.primal_value(c, mu, nu) == 1
    assert kg.dual_value(c, mu, nu).value == 1
    assert kg.partial_value(c, mu, nu, F(1, 3)) == 0
    # cover of the forbidden set
    L = kg.cellset_from_pairs(3, 3, [(i, j) for i, j, v in c.cells() if kg.is_inf(v)])
    assert kg.cover_value(L, mu, nu)[0] == F(2, 3)
    assert kg.brute_cover(L, mu, nu) == F(2, 3)


def test_random_instance_deterministic():
    a = kg.random_instance(4, 3, 0.4, "random", seed=11)
    b = kg.random_instance(4, 3, 0.4, "random", seed=11)
    assert a[0] == b[0]
    assert a[1].weights == b[1].weights
    assert a[2].weights == b[2].weights
    c = kg.random_instance(4, 3, 0.4, "random", seed=12)
    assert a[0] != c[0] or a[1].weights != c[1].weights


def test_random_instance_probability_and_denominators():
    c, mu, nu = kg.random_instance(5, 5, 0.3, "random", seed=3)
    assert mu.is_probability() and nu.is_probability()
    for _i, _j, v in c.finite_cells():
        assert F(v).denominator <= 64


def test_random_instance_extreme_densities():
    c, mu, nu = kg.random_instance(3, 3, 1, "uniform", seed=0)
    assert kg.is_inf(kg.primal_value(c, mu, nu))
    assert kg.max_shippable_mass(c, mu, nu) == 0
    c, mu, nu = kg.random_instance(3, 3, 0, "uniform", seed=0)
    p = kg.primal_value(c, mu, nu)
    assert not kg.is_inf(p)
    assert kg.dual_value(c, mu, nu).value == p


def test_random_instance_golden_pin():
    c, mu, nu = kg.random_instance(2, 2, 0.5, "random", seed=2024)
    assert (c, mu.weights, nu.weights) == (
        kg.random_instance(2, 2, 0.5, "random", seed=2024)[0],
        mu.weights,
        nu.weights,
    )


def test_band_structure():
    c, mu, nu = kg.closed_inf_band(5, 2)
    for i in range(5):
        for j in range(5):
            if abs(i - j) < 2:
                assert kg.is_inf(c[(i, j)])
            else:
                assert c[(i, j)] == 0


def test_band_zero_width_all_finite():
    c, mu, nu = kg.closed_inf_band(4, 0)
    assert not any(kg.is_inf(v) for _, _, v in c.cells())
    assert kg.primal_value(c, mu, nu) == 0


def test_band_maximal_width_feasibility_by_flow():
    c, mu, nu = kg.closed_inf_band(4, 3)
    assert kg.max_shippable_mass(c, mu, nu) == F(1, 2)
    assert kg.is_inf(kg.primal_value(c, mu, nu))


def test_band_sandwich_dual_relaxed():
    for bw in (0, 1):
        c, mu, nu = kg.closed_inf_band(4, bw)
        p = kg.primal_value(c, mu, nu)
        d = kg.dual_value(c, mu, nu).value
        rel = kg.relaxed_dual_value(c, mu, nu).value
        assert d <= rel <= p


def test_band_rejects_too_wide():
    with pytest.raises(InputError):
        kg.closed_inf_band(4, 4)


def test_generators_check_the_cell_budget(monkeypatch):
    monkeypatch.setattr(scenarios, "MAX_CELLS", 12)
    assert kg.random_instance(3, 4)[0].ny == 4
    assert kg.example_diagonal(3)[0].nx == 3
    assert kg.closed_inf_band(3, 1)[0].nx == 3
    for build in (
        lambda: kg.random_instance(13, 1),
        lambda: kg.random_instance(1, 13),
        lambda: kg.example_diagonal(4),
        lambda: kg.closed_inf_band(4, 1),
    ):
        with pytest.raises(InputError, match="exceed the budget of 12 cells"):
            build()
    # the argument checks come first
    with pytest.raises(InputError, match="bandwidth must be < n"):
        kg.closed_inf_band(4, 4)
    with pytest.raises(InputError, match="inf_density"):
        kg.random_instance(13, 13, 2)
