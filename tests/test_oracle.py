from fractions import Fraction as F
from pathlib import Path

import pytest

import kantgap as kg
from kantgap import modes
from kantgap.errors import InputError, InstanceTooLargeError


@pytest.fixture
def diag3():
    return kg.example_diagonal(3)


def test_brute_primal_golden_staircase(diag3):
    c, mu, nu = diag3
    assert kg.brute_primal(c, mu, nu, 1) == 1
    assert kg.brute_primal(c, mu, nu, F(2, 3)) == 0
    assert kg.brute_primal(c, mu, nu, F(5, 6)) == F(1, 2)


def test_brute_primal_zero_cost():
    mu = kg.uniform_marginal(3)
    c0 = kg.constant_matrix(3, 3, 0)
    for m in (0, F(1, 3), F(1, 2), 1):
        assert kg.brute_primal(c0, mu, mu, m) == 0


def test_brute_primal_beyond_max_mass(diag3):
    c, mu, nu = diag3
    assert kg.is_inf(kg.brute_primal(c, mu, nu, F(3, 2)))
    band, bmu, bnu = kg.closed_inf_band(4, 3)
    assert kg.is_inf(kg.brute_primal(band, bmu, bnu, 1))
    assert kg.brute_primal(band, bmu, bnu, F(1, 2)) == 0


def test_brute_primal_negative_mass(diag3):
    c, mu, nu = diag3
    with pytest.raises(InputError):
        kg.brute_primal(c, mu, nu, -1)


def test_brute_primal_size_limit():
    c, mu, nu = kg.random_instance(5, 5, 0, "uniform", 0)
    with pytest.raises(InstanceTooLargeError):
        kg.brute_primal(c, mu, nu, 1)


def test_brute_profile_is_exact_envelope(diag3):
    c, mu, nu = diag3
    assert kg.brute_profile(c, mu, nu) == ((0, 0), (F(2, 3), 0), (1, 1))


def test_brute_chargeable_goldens(diag3):
    c, mu, nu = diag3
    assert kg.brute_chargeable(c, mu, nu) == frozenset({(0, 0), (1, 1), (2, 2)})
    band, bmu, bnu = kg.closed_inf_band(4, 3)  # infeasible: nothing chargeable
    assert kg.brute_chargeable(band, bmu, bnu) == frozenset()
    # a weightless row is never charged, even through finite cells
    mu0 = kg.make_marginal(kg.DiscreteSpace(2), [1, 0])
    nu0 = kg.uniform_marginal(2)
    c0 = kg.constant_matrix(2, 2, 0)
    assert kg.brute_chargeable(c0, mu0, nu0) == frozenset({(0, 0), (0, 1)})


def test_brute_chargeable_size_limit():
    c, mu, nu = kg.random_instance(5, 3, 0, "uniform", 0)
    with pytest.raises(InstanceTooLargeError):
        kg.brute_chargeable(c, mu, nu)


def test_brute_cover_goldens():
    mu = kg.uniform_marginal(3)
    diag = kg.cellset_from_pairs(3, 3, [(i, i) for i in range(3)])
    assert kg.brute_cover(diag, mu, mu) == 1
    assert kg.brute_cover(kg.cellset_from_pairs(3, 3, []), mu, mu) == 0
    nu = kg.make_marginal(kg.DiscreteSpace(2), [F(1, 2), F(1, 2)])
    one = kg.cellset_from_pairs(3, 2, [(0, 1)])
    assert kg.brute_cover(one, mu, nu) == F(1, 3)


def test_brute_cover_size_limit():
    mu = kg.make_marginal(kg.DiscreteSpace(11), [F(1, 11)] * 11)
    L = kg.cellset_from_pairs(11, 11, [(0, 0)])
    with pytest.raises(InstanceTooLargeError):
        kg.brute_cover(L, mu, mu)


def test_brute_capacity_goldens():
    mu = kg.uniform_marginal(3)
    assert kg.brute_capacity(kg.cellset_from_pairs(3, 3, []), mu) == 0
    diag = kg.cellset_from_pairs(3, 3, [(i, i) for i in range(3)])
    assert kg.brute_capacity(diag, mu) == F(1, 2)
    assert kg.brute_capacity(kg.cellset_from_matrix([[1] * 3] * 3), mu) == F(1, 2)


def test_brute_capacity_size_limit():
    mu = kg.uniform_marginal(11)
    with pytest.raises(InstanceTooLargeError):
        kg.brute_capacity(kg.cellset_from_pairs(11, 11, [(0, 0)]), mu)


def test_oracles_share_no_solver_code():
    # the oracle module must not import the engines it certifies
    import kantgap.oracle as om

    src = Path(om.__file__).read_text()
    assert "from .flow" not in src and "from .kellerer" not in src
    assert "import flow" not in src and "import kellerer" not in src


def test_brute_profile_cache_keeps_modes_apart():
    # float and exact marginals compare and hash equal, so the cache must
    # be keyed on the mode as well
    exact = kg.brute_profile(*kg.example_diagonal(2))
    with modes.arithmetic(modes.FLOAT):
        floats = kg.brute_profile(*kg.example_diagonal(2))
    assert any(isinstance(v, F) for point in exact for v in point)
    assert not any(isinstance(v, F) for point in floats for v in point)
