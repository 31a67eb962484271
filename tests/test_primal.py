from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import primal
from kantgap.errors import InputError, MassMismatchError, PreconditionError


@pytest.fixture
def diag3():
    return kg.example_diagonal(3)


def test_primal_value_diag3(diag3):
    c, mu, nu = diag3
    assert kg.primal_value(c, mu, nu) == 1
    assert kg.brute_primal(c, mu, nu, 1) == 1


def test_primal_value_zero_cost():
    mu = kg.uniform_marginal(3)
    assert kg.primal_value(kg.constant_matrix(3, 3, 0), mu, mu) == 0


def test_primal_value_all_infinite():
    mu = kg.uniform_marginal(2)
    c = kg.make_cost_matrix([["inf", "inf"], ["inf", "inf"]])
    assert kg.is_inf(kg.primal_value(c, mu, mu))


def test_primal_requires_probability(diag3):
    c, mu, _ = diag3
    sub = kg.make_marginal(mu.space, [F(1, 3), F(1, 3), 0])
    with pytest.raises(PreconditionError):
        kg.primal_value(c, mu, sub)


def test_partial_value_examples(diag3):
    c, mu, nu = diag3
    assert kg.partial_value(c, mu, nu, F(1, 3)) == 0
    assert kg.partial_value(c, mu, nu, 1) == 0  # empty plan allowed
    assert kg.partial_value(c, mu, nu, F(1, 6)) == F(1, 2)
    assert kg.brute_primal(c, mu, nu, F(5, 6)) == F(1, 2)


def test_partial_value_out_of_range(diag3):
    c, mu, nu = diag3
    with pytest.raises(InputError):
        kg.partial_value(c, mu, nu, F(3, 2))
    with pytest.raises(InputError):
        kg.partial_value(c, mu, nu, -1)


def test_partial_monotone_in_eps(diag3):
    c, mu, nu = diag3
    grid = [F(k, 12) for k in range(13)]
    vals = [kg.partial_value(c, mu, nu, e) for e in grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_relaxed_equals_primal_on_finite_instances(diag3):
    c, mu, nu = diag3
    assert kg.relaxed_value(c, mu, nu) == kg.primal_value(c, mu, nu) == 1
    for seed in range(20):
        c, mu, nu = kg.random_instance(4, 3, 0.4, "random", seed)
        p = kg.primal_value(c, mu, nu)
        r = kg.relaxed_value(c, mu, nu)
        assert (kg.is_inf(p) and kg.is_inf(r)) or p == r


def test_relaxed_value_trivial_cases():
    mu = kg.uniform_marginal(2)
    assert kg.relaxed_value(kg.constant_matrix(2, 2, 0), mu, mu) == 0
    c = kg.make_cost_matrix([["inf", "inf"], ["inf", "inf"]])
    assert kg.is_inf(kg.relaxed_value(c, mu, mu))


def test_phi_value_at_ones_is_primal(diag3):
    c, mu, nu = diag3
    assert kg.phi_value(c, mu, nu, [1, 1, 1], [1, 1, 1]) == kg.primal_value(c, mu, nu)


def test_phi_value_zero_densities(diag3):
    c, mu, nu = diag3
    assert kg.phi_value(c, mu, nu, [0, 0, 0], [0, 0, 0]) == 0


def test_phi_value_shifted_densities(diag3):
    c, mu, nu = diag3
    assert kg.phi_value(c, mu, nu, [0, 1, 1], [1, 1, 0]) == 0


def test_phi_value_mass_mismatch(diag3):
    c, mu, nu = diag3
    with pytest.raises(MassMismatchError):
        kg.phi_value(c, mu, nu, [1, 1, 1], [1, 1, 0])


def test_phi_positive_homogeneity(diag3):
    c, mu, nu = diag3
    f, g = [0, 1, 1], [1, 1, 0]
    base = kg.phi_value(c, mu, nu, f, g)
    for s in (F(1, 2), 2, F(7, 3)):
        fs = [s * x for x in f]
        gs = [s * x for x in g]
        assert kg.phi_value(c, mu, nu, fs, gs) == s * base


def test_phi_convexity_on_segments():
    for seed in range(8):
        c, mu, nu = kg.random_instance(3, 3, 0.2, "uniform", seed)
        f1, g1 = [1, 1, 1], [1, 1, 1]
        f2, g2 = [0, 2, 1], [1, 1, 1]
        v1 = kg.phi_value(c, mu, nu, f1, g1)
        v2 = kg.phi_value(c, mu, nu, f2, g2)
        if kg.is_inf(v1) or kg.is_inf(v2):
            continue
        mid_f = [(a + b) / 2 for a, b in zip(f1, f2)]
        mid_g = [(a + b) / 2 for a, b in zip(g1, g2)]
        vm = kg.phi_value(c, mu, nu, mid_f, mid_g)
        assert vm <= (v1 + v2) / 2


def test_truncation_sweep_diag3(diag3):
    c, mu, nu = diag3
    levels = [kg.constant_matrix(3, 3, m) for m in (1, 2, 3, 100)]
    vals = kg.truncation_sweep(c, mu, nu, levels)
    assert vals == [(0, F(1, 3)), (1, F(2, 3)), (2, 1), (3, 1)]
    # oracle pins the headline value P_{c /\ 2} = 2/3
    assert kg.brute_primal(kg.truncate_at(c, 2), mu, nu, 1) == F(2, 3)


def test_truncation_sweep_monotone_and_capped(diag3):
    c, mu, nu = diag3
    rel = kg.relaxed_value(c, mu, nu)
    vals = [v for _, v in kg.constant_truncation_sweep(c, mu, nu, range(8))]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert all(v <= rel for v in vals)


def test_truncation_sweep_zero_cost():
    mu = kg.uniform_marginal(3)
    c0 = kg.constant_matrix(3, 3, 0)
    vals = kg.constant_truncation_sweep(c0, mu, mu, [1, 2, 3])
    assert all(v == 0 for _, v in vals)


def test_truncation_sweep_nonconstant_ladder(diag3):
    c, mu, nu = diag3
    h1 = kg.make_cost_matrix([[1, 1, 2], [1, 1, 1], [2, 1, 1]])
    h2 = kg.make_cost_matrix([[2, 3, 4], [1, 2, 3], [2, 2, 2]])
    h3 = kg.constant_matrix(3, 3, 9)
    vals = [v for _, v in kg.truncation_sweep(c, mu, nu, [h1, h2, h3])]
    rel = kg.relaxed_value(c, mu, nu)
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert all(v <= rel for v in vals)
    assert vals[-1] == rel  # the top level clears every finite cell and sum


def test_truncation_sweep_rejects_nonmonotone(diag3):
    c, mu, nu = diag3
    bad = [kg.constant_matrix(3, 3, 2), kg.constant_matrix(3, 3, 1)]
    with pytest.raises(InputError):
        kg.truncation_sweep(c, mu, nu, bad)
    with pytest.raises(InputError):
        kg.truncation_sweep(c, mu, nu, [kg.make_cost_matrix([[kg.INF] * 3] * 3)])


def test_primal_report(diag3):
    c, mu, nu = diag3
    rep = kg.primal_report(c, mu, nu, eps_grid=[0, F(1, 6), F(1, 3)])
    assert rep.value == 1
    assert rep.relaxed == 1
    assert rep.max_mass == 1
    assert rep.partials == ((0, 1), (F(1, 6), F(1, 2)), (F(1, 3), 0))
    assert kg.cost_of(c, rep.witness) == 1


def test_refinement_study_diagonal_family():
    rows = kg.refinement_study(
        kg.example_diagonal, [3, 4, 5, 6], ["1/n"], [2]
    )
    assert all(r.value == 1 for r in rows)
    assert all(r.dual == 1 for r in rows)
    assert all(r.partial == 0 for r in rows)
    # fixed truncation level decays toward zero as the grid refines
    truncs = [r.truncated for r in rows]
    assert truncs == [F(2, 3), F(1, 2), F(2, 5), F(1, 3)]
    assert all(a > b for a, b in zip(truncs, truncs[1:]))


def test_refinement_study_rows_cross_product():
    rows = kg.refinement_study(kg.example_diagonal, [2, 3], [0, "1/n"], [1, 2])
    assert len(rows) == 2 * 2 * 2
    assert [r.n for r in rows[:4]] == [2, 2, 2, 2]


def test_refinement_study_checks_eps_before_solving(monkeypatch):
    # an empty level list used to skip the eps check and return []
    with pytest.raises(InputError, match="eps 2 outside"):
        kg.refinement_study(kg.example_diagonal, [3], ["2"], [])

    def no_run(*args, **kwargs):
        raise AssertionError("the engine ran before the eps grid was checked")

    monkeypatch.setattr(primal, "_run_ssp", no_run)
    with pytest.raises(InputError, match="eps 2 outside"):
        kg.refinement_study(kg.example_diagonal, [3], [0, "2"], [1])
