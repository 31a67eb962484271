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


@pytest.mark.parametrize("mode", [modes.EXACT, modes.FLOAT])
def test_brute_primal_golden_float_rounding(mode):
    """In float mode, shipping the weights in two orders ends at masses
    0.9999999999999999 and 1.0; they are the same mass, and the cheaper
    cost 5/7 is the value at 1."""
    with modes.arithmetic(mode):
        c = kg.make_cost_matrix(
            [[1, kg.INF, 2, 2], [2, 1, 0, 2], [1, 2, 1, 0], [1, kg.INF, 2, 2]]
        )
        mu = kg.make_marginal(kg.DiscreteSpace(4), [0, F(2, 7), F(3, 7), F(2, 7)])
        nu = kg.make_marginal(kg.DiscreteSpace(4), [F(1, 2), 0, F(1, 2), 0])
        assert modes.eq(kg.brute_primal(c, mu, nu, 1), modes.coerce(F(5, 7)))
        assert len(kg.brute_profile(c, mu, nu)) == 3


@pytest.mark.parametrize("mode", [modes.EXACT, modes.FLOAT])
def test_brute_profile_drops_collinear_points(mode):
    """The float masses 0.1, 0.6, 0.9 and 1.0 all lie on one slope-1
    segment; the turns between them are rounding, not breakpoints."""
    with modes.arithmetic(mode):
        c = kg.make_cost_matrix([[1, 2, 0], [3, 1, 2], [2, 5, 1], [1, 1, 1]])
        mu = kg.make_marginal(kg.DiscreteSpace(4), ["1/10", "2/10", "3/10", "4/10"])
        nu = kg.make_marginal(kg.DiscreteSpace(3), ["3/10", "3/10", "4/10"])
        hull = kg.brute_profile(c, mu, nu)
        engine = kg.solve_profile(c, mu, nu).breakpoints
        assert len(hull) == len(engine) == 3
        for (hm, hc), (em, ec) in zip(hull, engine):
            assert modes.eq(hm, em) and modes.eq(hc, ec)


@pytest.mark.parametrize("mode", [modes.EXACT, modes.FLOAT])
def test_brute_profile_keeps_small_mass_breakpoints(mode):
    """A breakpoint whose cross product with its neighbours is below the
    tolerance only because the masses are small is still 2.5e-6 below
    their chord: (1e-4, 0) stays, and the value there is 0."""
    with modes.arithmetic(mode):
        c = kg.make_cost_matrix([[0], ["1/20"], [kg.INF]])
        mu = kg.make_marginal(kg.DiscreteSpace(3), ["1/10000", "1/10000", "9998/10000"])
        nu = kg.make_marginal(kg.DiscreteSpace(1), [1])
        hull = kg.brute_profile(c, mu, nu)
        engine = kg.solve_profile(c, mu, nu).breakpoints
        assert len(hull) == len(engine) == 3
        for (hm, hc), (em, ec) in zip(hull, engine):
            assert modes.eq(hm, em) and modes.eq(hc, ec)
        at = modes.coerce("1/10000")
        assert kg.brute_primal(c, mu, nu, at) == 0
        assert kg.evaluate_profile(kg.solve_profile(c, mu, nu), at) == 0


def _search(monkeypatch, c, mu, nu):
    """The profile search run afresh (past the cache), with every (mass,
    cost) cloud it hands to its hull."""
    from kantgap import oracle

    clouds = []
    hull = oracle._lower_hull
    monkeypatch.setattr(oracle, "_lower_hull", lambda cloud: clouds.append(cloud) or hull(cloud))
    return oracle._profile_points(c, mu, nu), clouds


def test_float_oracle_ships_no_residual_within_tolerance(monkeypatch):
    """A float residual of about 1e-16 is no mass: the search ships only
    when both residuals exceed the tolerance.  Here 3/10 - 1/10 - 2/10
    leaves 2.8e-17 behind, which a shipment must not pick up."""
    with modes.arithmetic(modes.FLOAT):
        c = kg.make_cost_matrix([[1, 2], [3, 1], [2, 5]])
        mu = kg.make_marginal(kg.DiscreteSpace(3), ["1/10", "2/10", "7/10"])
        nu = kg.make_marginal(kg.DiscreteSpace(2), ["3/10", "7/10"])
        hull, clouds = _search(monkeypatch, c, mu, nu)
    assert all(m == 0 or m > modes.FLOAT_TOL for cloud in clouds for m, _ in cloud)
    assert hull[-1] == pytest.approx((1, 3), abs=modes.FLOAT_TOL)


def test_float_golden_masses_stay_apart(monkeypatch):
    with modes.arithmetic(modes.FLOAT):
        c = kg.make_cost_matrix(
            [[1, kg.INF, 2, 2], [2, 1, 0, 2], [1, 2, 1, 0], [1, kg.INF, 2, 2]]
        )
        mu = kg.make_marginal(kg.DiscreteSpace(4), [0, F(2, 7), F(3, 7), F(2, 7)])
        nu = kg.make_marginal(kg.DiscreteSpace(4), [F(1, 2), 0, F(1, 2), 0])
        hull, clouds = _search(monkeypatch, c, mu, nu)
        assert modes.eq(kg.brute_primal(c, mu, nu, 1), 5 / 7)
    masses = [m for m, _ in hull]
    assert len(hull) == 3
    assert all(b - a > modes.FLOAT_TOL for a, b in zip(masses, masses[1:]))
    assert all(m == 0 or m > modes.FLOAT_TOL for cloud in clouds for m, _ in cloud)


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
