from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import modes
from kantgap.errors import MassMismatchError, NotSquareError


@pytest.fixture
def uni3():
    return kg.uniform_marginal(3)


def _diag(n):
    return kg.cellset_from_pairs(n, n, [(i, i) for i in range(n)])


def test_cover_empty(uni3):
    L = kg.cellset_from_pairs(3, 3, [])
    value, cert = kg.cover_value(L, uni3, uni3)
    assert value == 0
    assert cert.rows == frozenset() and cert.cols == frozenset()


def test_cover_diagonal_uniform3(uni3):
    value, cert = kg.cover_value(_diag(3), uni3, uni3)
    assert value == 1
    assert value == kg.brute_cover(_diag(3), uni3, uni3)


def test_cover_single_cell_min_of_weights():
    mu = kg.make_marginal(kg.DiscreteSpace(3), [F(1, 3), F(1, 3), F(1, 3)])
    nu = kg.make_marginal(kg.DiscreteSpace(2), [F(1, 2), F(1, 2)])
    L = kg.cellset_from_pairs(3, 2, [(1, 0)])
    value, cert = kg.cover_value(L, mu, nu)
    assert value == F(1, 3)
    assert cert.rows == frozenset({1}) and cert.cols == frozenset()
    assert kg.brute_cover(L, mu, nu) == F(1, 3)


def test_cover_forbidden_region_of_staircase(uni3):
    L = kg.cellset_from_pairs(3, 3, [(0, 1), (0, 2), (1, 2)])
    value, _cert = kg.cover_value(L, uni3, uni3)
    assert value == F(2, 3)
    assert kg.brute_cover(L, uni3, uni3) == F(2, 3)


def test_max_mass_empty(uni3):
    mass, wit = kg.max_mass_on(kg.cellset_from_pairs(3, 3, []), uni3, uni3)
    assert mass == 0 and wit.mass == 0


def test_max_mass_diagonal(uni3):
    mass, wit = kg.max_mass_on(_diag(3), uni3, uni3)
    assert mass == 1
    assert dict(wit.entries) == {(i, i): F(1, 3) for i in range(3)}


def test_max_mass_full_grid(uni3):
    full = kg.cellset_from_matrix([[1] * 3] * 3)
    mass, _ = kg.max_mass_on(full, uni3, uni3)
    assert mass == 1


def test_cover_equals_max_mass_strong_duality():
    for seed in range(40):
        c, mu, nu = kg.random_instance(4, 5, 0, "random", seed)
        import random

        rng = random.Random(seed)
        pairs = [(i, j) for i in range(4) for j in range(5) if rng.random() < 0.4]
        L = kg.cellset_from_pairs(4, 5, pairs)
        v, _ = kg.cover_value(L, mu, nu)
        mass, wit = kg.max_mass_on(L, mu, nu)
        assert v == mass
        assert all(ij in L for ij in wit.entries)


def test_capacity_empty(uni3):
    value, f = kg.capacity_value(kg.cellset_from_pairs(3, 3, []), uni3)
    assert value == 0 and f == (0, 0, 0)


def test_capacity_diagonal(uni3):
    value, f = kg.capacity_value(_diag(3), uni3)
    assert value == F(1, 2)
    assert f == (F(1, 2), F(1, 2), F(1, 2))


def test_capacity_full_grid(uni3):
    full = kg.cellset_from_matrix([[1] * 3] * 3)
    value, _f = kg.capacity_value(full, uni3)
    assert value == F(1, 2)


def test_capacity_not_square(uni3):
    L = kg.cellset_from_pairs(3, 2, [(0, 0)])
    with pytest.raises(NotSquareError):
        kg.capacity_value(L, uni3)


def _random_square(seed):
    """Seeded square cell set, diagonal cells included, over a weighting
    that may put zero weight on some atoms."""
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 7)
    raw = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = 1
    lam = kg.make_marginal(kg.DiscreteSpace(n), [F(w, sum(raw)) for w in raw])
    density = rng.choice((0.2, 0.4, 0.7))
    pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < density]
    return kg.cellset_from_pairs(n, n, pairs), lam


def test_capacity_matches_half_integral_oracle():
    for seed in range(320):
        L, lam = _random_square(seed)
        gamma, f = kg.capacity_value(L, lam)
        assert gamma == kg.brute_capacity(L, lam), seed
        assert all(0 <= v <= 1 for v in f)
        assert all(f[i] + f[j] >= 1 for i, j in L.cells())
        assert sum(w * v for w, v in zip(lam.weights, f)) == gamma


def test_sandwich_gamma_m_4gamma(uni3):
    import random

    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        mu = kg.random_instance(n, n, 0, "random", seed)[1]
        pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.5]
        L = kg.cellset_from_pairs(n, n, pairs)
        gamma, _ = kg.capacity_value(L, mu)
        m_val, _ = kg.cover_value(L, mu, mu)
        assert gamma <= m_val <= 4 * gamma


def test_null_for_all_couplings_cases(uni3):
    assert kg.null_for_all_couplings(kg.cellset_from_pairs(3, 3, []), uni3, uni3)
    assert not kg.null_for_all_couplings(_diag(3), uni3, uni3)
    mu = kg.make_marginal(kg.DiscreteSpace(3), [F(1, 2), F(1, 2), 0])
    L = kg.cellset_from_pairs(3, 3, [(2, 0), (2, 2)])
    assert kg.null_for_all_couplings(L, mu, uni3)


def test_null_for_all_couplings_float_masses_apart():
    """Each float marginal weighs within the tolerance of 1 but they differ
    by more; the null question needs no full coupling, so it answers."""
    with modes.arithmetic(modes.FLOAT):
        mu = kg.make_marginal(kg.DiscreteSpace(2), [0.5, 0.5000000009])
        nu = kg.make_marginal(kg.DiscreteSpace(2), [0.5, 0.4999999991])
        assert not kg.null_for_all_couplings(_diag(2), mu, nu)
        assert kg.null_for_all_couplings(kg.cellset_from_pairs(2, 2, []), mu, nu)


def test_null_for_all_couplings_matches_complement_cost_formula():
    # the formula null_for_all_couplings replaced: L is null exactly when
    # the cheapest full transport under the indicator cost of the
    # complement of L is the whole unit mass
    import random

    rng = random.Random(17)
    nulls = 0
    for seed in range(400):
        nx, ny = rng.randint(1, 6), rng.randint(1, 6)
        _, mu, nu = kg.random_instance(nx, ny, 0, "random", 6000 + seed)
        density = rng.choice((0.1, 0.3, 0.6))
        pairs = [(i, j) for i in range(nx) for j in range(ny) if rng.random() < density]
        L = kg.cellset_from_pairs(nx, ny, pairs)
        complement = kg.make_cost_matrix([[0 if f else 1 for f in row] for row in L.rows])
        expected = kg.primal_value(complement, mu, nu) == 1
        assert kg.null_for_all_couplings(L, mu, nu) == expected
        nulls += expected
    assert 20 <= nulls <= 380


def test_decompose_zero_weight_rows():
    mu = kg.make_marginal(kg.DiscreteSpace(3), [F(1, 2), F(1, 2), 0])
    nu = kg.uniform_marginal(3)
    L = kg.cellset_from_pairs(3, 3, [(2, 0), (2, 1)])
    dec = kg.kellerer_decompose(L, mu, nu)
    assert dec.is_null
    assert dec.null_rows == frozenset({2})
    assert dec.null_cols == frozenset()


def test_decompose_diagonal_witness(uni3):
    dec = kg.kellerer_decompose(_diag(3), uni3, uni3)
    assert not dec.is_null
    charged = sum(m for (i, j), m in dec.witness.entries.items() if (i, j) in _diag(3))
    assert charged > 0
    assert kg.is_full_coupling(dec.witness, uni3, uni3)


def test_decompose_empty(uni3):
    dec = kg.kellerer_decompose(kg.cellset_from_pairs(3, 3, []), uni3, uni3)
    assert dec.is_null
    assert dec.null_rows == frozenset() and dec.null_cols == frozenset()


def test_decompose_mass_mismatch_witness_branch():
    mu = kg.make_marginal(kg.DiscreteSpace(2), [F(1, 2), F(1, 2)])
    nu = kg.make_marginal(kg.DiscreteSpace(2), [F(1, 4), F(1, 4)])
    L = kg.cellset_from_pairs(2, 2, [(0, 0)])
    with pytest.raises(MassMismatchError):
        kg.kellerer_decompose(L, mu, nu)


def test_zero_equivalence_chain():
    import random

    for seed in range(40):
        rng = random.Random(1000 + seed)
        n = rng.randint(1, 4)
        _, mu, nu = kg.random_instance(n, n, 0, "random", seed)
        pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.3]
        L = kg.cellset_from_pairs(n, n, pairs)
        m_val, _ = kg.cover_value(L, mu, nu)
        mass, _ = kg.max_mass_on(L, mu, nu)
        null = kg.null_for_all_couplings(L, mu, nu)
        dec = kg.kellerer_decompose(L, mu, nu)
        states = {m_val == 0, mass == 0, null, dec.is_null}
        assert len(states) == 1, (seed, m_val, mass, null, dec.is_null)


def test_monotonicity_under_inclusion(uni3):
    small = kg.cellset_from_pairs(3, 3, [(0, 0), (1, 2)])
    large = kg.cellset_from_pairs(3, 3, [(0, 0), (1, 2), (2, 1), (2, 2)])
    assert kg.cover_value(small, uni3, uni3)[0] <= kg.cover_value(large, uni3, uni3)[0]
    assert kg.max_mass_on(small, uni3, uni3)[0] <= kg.max_mass_on(large, uni3, uni3)[0]
    assert kg.capacity_value(small, uni3)[0] <= kg.capacity_value(large, uni3)[0]


def test_subadditivity_of_cover(uni3):
    import random

    for seed in range(20):
        rng = random.Random(seed)
        pa = [(i, j) for i in range(3) for j in range(3) if rng.random() < 0.3]
        pb = [(i, j) for i in range(3) for j in range(3) if rng.random() < 0.3]
        A = kg.cellset_from_pairs(3, 3, pa)
        B = kg.cellset_from_pairs(3, 3, pb)
        U = kg.cellset_from_pairs(3, 3, pa + pb)
        assert (
            kg.cover_value(U, uni3, uni3)[0]
            <= kg.cover_value(A, uni3, uni3)[0] + kg.cover_value(B, uni3, uni3)[0]
        )
