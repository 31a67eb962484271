from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import modes
from kantgap.errors import (
    DimensionMismatchError,
    InputError,
    NegativeWeightError,
)
from kantgap.primal import check_eps


@pytest.fixture
def diag3():
    return kg.example_diagonal(3)


def test_make_marginal_uniform():
    mu = kg.make_marginal(kg.DiscreteSpace(3), [F(1, 3)] * 3)
    assert mu.mass == 1
    assert mu.is_probability()


def test_make_marginal_subprobability():
    mu = kg.make_marginal(kg.DiscreteSpace(3), [F(1, 3), F(1, 3), 0])
    assert mu.mass == F(2, 3)
    assert not mu.is_probability()


def test_make_marginal_negative_weight():
    with pytest.raises(NegativeWeightError):
        kg.make_marginal(kg.DiscreteSpace(2), [-1, 2])


def test_make_marginal_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        kg.make_marginal(kg.DiscreteSpace(2), [1, 2, 3])


def test_cost_of_zero_cost(diag3):
    _, mu, nu = diag3
    c0 = kg.constant_matrix(3, 3, 0)
    pi = kg.product_coupling(mu, nu)
    assert kg.cost_of(c0, pi) == 0


def test_cost_of_diagonal_coupling(diag3):
    c, mu, nu = diag3
    diag = kg.make_coupling(mu.space, nu.space, {(i, i): F(1, 3) for i in range(3)})
    assert kg.cost_of(c, diag) == 1
    # cross-checked against the exhaustive reference
    assert kg.brute_primal(c, mu, nu, 1) == 1


def test_cost_of_infinite_cell(diag3):
    c, mu, nu = diag3
    pi = kg.make_coupling(mu.space, nu.space, {(0, 2): F(1, 4)})
    assert kg.is_inf(kg.cost_of(c, pi))


def test_cost_of_zero_mass_on_infinite_cell_is_free(diag3):
    # 0 * oo = 0: entries with zero mass are dropped at construction
    c, mu, nu = diag3
    pi = kg.make_coupling(mu.space, nu.space, {(0, 2): 0, (1, 0): F(1, 3)})
    assert (0, 2) not in pi.entries
    assert kg.cost_of(c, pi) == 0


def test_cost_of_dimension_mismatch(diag3):
    c, mu, nu = diag3
    pi = kg.make_coupling(kg.DiscreteSpace(2), kg.DiscreteSpace(2), {(0, 0): 1})
    with pytest.raises(DimensionMismatchError):
        kg.cost_of(c, pi)


def test_coupling_marginals_product(diag3):
    _, mu, nu = diag3
    pi = kg.product_coupling(mu, nu)
    rows, cols = kg.coupling_marginals(pi)
    assert rows.weights == mu.weights
    assert cols.weights == nu.weights


def test_coupling_marginals_diagonal(diag3):
    _, mu, nu = diag3
    diag = kg.make_coupling(mu.space, nu.space, {(i, i): F(1, 3) for i in range(3)})
    rows, cols = kg.coupling_marginals(diag)
    assert rows.weights == mu.weights
    assert cols.weights == nu.weights


def test_coupling_marginals_empty():
    empty = kg.empty_coupling(kg.DiscreteSpace(2), kg.DiscreteSpace(3))
    rows, cols = kg.coupling_marginals(empty)
    assert rows.weights == (0, 0)
    assert cols.weights == (0, 0, 0)
    assert empty.mass == 0


def test_product_coupling_uniform2():
    mu = kg.uniform_marginal(2)
    pi = kg.product_coupling(mu, mu, 1)
    assert all(m == F(1, 4) for m in pi.entries.values())
    assert pi.mass == 1


def test_product_coupling_epsilon_completion_mass():
    # two mass-eps marginals scaled by 1/eps give back mass eps
    eps = F(1, 5)
    sp = kg.DiscreteSpace(2)
    alpha = kg.make_marginal(sp, [eps / 2, eps / 2])
    beta = kg.make_marginal(sp, [eps, 0])
    pi = kg.product_coupling(alpha, beta, 1 / eps)
    assert pi.mass == eps


def test_product_coupling_zero_scale(diag3):
    _, mu, nu = diag3
    assert kg.product_coupling(mu, nu, 0).mass == 0


def test_product_coupling_negative_scale(diag3):
    _, mu, nu = diag3
    with pytest.raises(NegativeWeightError):
        kg.product_coupling(mu, nu, -1)


def test_product_coupling_marginal_identity(diag3):
    # projections of s * (alpha x beta) are s|beta| alpha and s|alpha| beta
    _, mu, _ = diag3
    sp = kg.DiscreteSpace(3)
    alpha = kg.make_marginal(sp, [F(1, 2), F(1, 4), 0])
    beta = kg.make_marginal(sp, [F(1, 8), F(3, 8), F(1, 8)])
    s = F(2, 3)
    pi = kg.product_coupling(alpha, beta, s)
    rows, cols = kg.coupling_marginals(pi)
    assert rows.weights == tuple(s * beta.mass * a for a in alpha.weights)
    assert cols.weights == tuple(s * alpha.mass * b for b in beta.weights)


def test_truncate_idempotent(diag3):
    c, _, _ = diag3
    assert kg.truncate_cost(c, c) == c


def test_truncate_diagonal_at_two(diag3):
    c, _, _ = diag3
    t = kg.truncate_at(c, 2)
    for i in range(3):
        for j in range(3):
            if j > i:
                assert t[(i, j)] == 2
            else:
                assert t[(i, j)] == c[(i, j)]


def test_truncate_at_zero(diag3):
    c, _, _ = diag3
    t = kg.truncate_at(c, 0)
    assert all(v == 0 for _, _, v in t.cells())


def test_truncate_monotone(diag3):
    c, _, _ = diag3
    lo, hi = kg.truncate_at(c, 1), kg.truncate_at(c, 2)
    a, b = kg.truncate_cost(c, lo), kg.truncate_cost(c, hi)
    for i, j, v in a.cells():
        assert v <= b[(i, j)]


def test_truncate_dimension_mismatch(diag3):
    c, _, _ = diag3
    with pytest.raises(DimensionMismatchError):
        kg.truncate_cost(c, kg.constant_matrix(2, 2, 1))


def test_inf_singleton_comparisons():
    assert kg.INF == kg.INF
    assert not kg.INF < 5
    assert kg.INF > 5
    assert min(kg.INF, F(1, 2)) == F(1, 2)
    assert min(F(1, 2), kg.INF) == F(1, 2)
    assert kg.NEG_INF < -(10**9)
    assert kg.NEG_INF <= kg.NEG_INF


def test_cost_matrix_rejects_negative():
    with pytest.raises(NegativeWeightError):
        kg.make_cost_matrix([[0, -1]])


def test_coupling_partial_and_full_predicates(diag3):
    _, mu, nu = diag3
    full = kg.product_coupling(mu, nu)
    part = kg.make_coupling(mu.space, nu.space, {(1, 0): F(1, 3)})
    assert kg.is_full_coupling(full, mu, nu)
    assert kg.is_partial_coupling(part, mu, nu)
    assert not kg.is_full_coupling(part, mu, nu)


_BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), None, True, "abc", "1/0", object()]
_BAD_IDS = ["nan", "inf", "-inf", "None", "True", "abc", "1/0", "object"]
# every constructor and parameter check reads its numbers through modes.coerce
_READERS = {
    "make_marginal": lambda bad: kg.make_marginal(kg.DiscreteSpace(2), [bad, 1]),
    "make_cost_matrix": lambda bad: kg.make_cost_matrix([[0, bad]]),
    "truncate_at": lambda bad: kg.truncate_at(kg.make_cost_matrix([[0, 1]]), bad),
    "make_coupling": lambda bad: kg.make_coupling(
        kg.DiscreteSpace(1), kg.DiscreteSpace(1), {(0, 0): bad}
    ),
    "check_eps": check_eps,
    "evaluate_profile": lambda bad: kg.evaluate_profile(
        kg.solve_profile(*kg.example_diagonal(2)), bad
    ),
}


@pytest.mark.parametrize("mode", [modes.EXACT, modes.FLOAT])
@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("bad", _BAD_NUMBERS, ids=_BAD_IDS)
def test_bad_numbers_raise_input_error(bad, reader, mode):
    with modes.arithmetic(mode), pytest.raises(InputError):
        _READERS[reader](bad)


@pytest.mark.parametrize("mode", [modes.EXACT, modes.FLOAT])
def test_exponent_beyond_the_digit_limit_rejected(mode):
    # the power of ten of a long exponent alone takes seconds to build
    with modes.arithmetic(mode):
        for token in ("1e4301", "1e-4301", "2.5E+1_0000_000", "1e10000000"):
            with pytest.raises(InputError, match="exponent beyond"):
                modes.coerce(token)
    assert modes.coerce("1e4300") == 10**4300
    assert modes.coerce("1e-4300") == F(1, 10**4300)


@pytest.mark.parametrize("mode", [modes.EXACT, modes.FLOAT])
def test_int_beyond_the_digit_limit(mode):
    # float() overflows on it, and repr() of it raises ValueError
    huge = 10**5000
    with modes.arithmetic(mode):
        if mode == modes.EXACT:
            assert modes.coerce(huge) == huge
        else:
            with pytest.raises(InputError) as err:
                modes.coerce(huge)
            assert len(str(err.value)) < 60


@pytest.mark.parametrize("mode", [modes.EXACT, modes.FLOAT])
def test_long_bad_token_gives_a_short_message(mode):
    long_tokens = ["7" * 5000 + "?", "x" * 5000, "1/" + "0" * 5000]
    with modes.arithmetic(mode):
        for token in long_tokens:
            with pytest.raises(InputError) as err:
                modes.coerce(token)
            assert str(err.value) == f"malformed number {token[:30]!r}"
        if mode == modes.FLOAT:  # well formed, but it overflows a float
            token = "9" * 400
            with pytest.raises(InputError) as err:
                modes.coerce(token)
            assert str(err.value) == f"too large for a float: {token[:30]!r}"
            assert len(str(err.value)) < 60


@pytest.mark.parametrize("value", [F(10**400), F(10**5000), F(-(10**5000), 3)])
def test_huge_fraction_gives_a_short_message(value):
    # repr() of a Fraction is unbounded, and raises beyond the digit limit
    with modes.arithmetic(modes.FLOAT):
        with pytest.raises(InputError) as err:
            modes.coerce(value)
    assert str(err.value).startswith("too large for a float: ")
    assert len(str(err.value)) < 60


@pytest.mark.parametrize("value", ["9" * 400, 10**400, "1e400", "-1e400"])
def test_float_overflow_says_too_large(value):
    with modes.arithmetic(modes.FLOAT):
        with pytest.raises(InputError) as err:
            modes.coerce(value)
    assert str(err.value).startswith("too large for a float: ")
    assert len(str(err.value)) < 60
    with modes.arithmetic(modes.EXACT):
        assert modes.coerce(value) == F(value)
