"""Metamorphic relations: transformed instances whose answers are known
from the original's.

Each transport example is a seeded ``random_instance`` with sides 8 to 40,
beyond the brute-force oracle's sizes, so these relations check the
solvers where no reference value exists.  The transforms live here:
transposing, permuting rows and columns, splitting an atom of mu into two
halves, adding a_i + b_j to every finite cell, and scaling the costs.  In
exact mode every relation holds with equality; in float mode P = D and the
permutation invariance hold within ``_REL`` of the largest finite cost.

The cover relations draw a cell set L with sides 1 to 9, about a third of
its cells in L, and rational weights that may be zero: the cover value m
of L^T under (nu, mu) is m, and its cover with rows and columns swapped
covers L; permuting L with the marginals keeps m; splitting a weighted row
atom into two halves that share its L-row keeps m; on a square L, a
symmetric permutation keeps the capacity gamma.
"""

from datetime import timedelta
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import kantgap as kg
from kantgap.errors import NotApplicableError

_settings = settings(max_examples=20, deadline=timedelta(seconds=5))
# a cover example is at most 9 by 9 and takes milliseconds, so it draws more
_cover_settings = settings(max_examples=100, deadline=timedelta(seconds=5))

# float mode: |x - y| <= _REL * (largest finite cost) for P = D and for the
# permutation invariance, at every cost scale 10^k drawn below
_REL = 1e-12

_rationals = st.builds(F, st.integers(0, 12), st.integers(1, 8))


@st.composite
def instances(draw):
    nx, ny = draw(st.integers(8, 40)), draw(st.integers(8, 40))
    density = draw(st.sampled_from([0, 0.1, 0.3, 0.6]))
    kind = draw(st.sampled_from(["uniform", "random"]))
    return kg.random_instance(nx, ny, density, kind, draw(st.integers(0, 2**32 - 1)))


def _marginal(weights):
    return kg.make_marginal(kg.DiscreteSpace(len(weights)), list(weights))


def _transpose(c, mu, nu):
    return kg.make_cost_matrix(list(zip(*c.rows))), nu, mu


def _permute(c, mu, nu, p, q):
    """Rows in the order ``p`` and columns in the order ``q``."""
    rows = [[c.rows[i][j] for j in q] for i in p]
    return (
        kg.make_cost_matrix(rows),
        _marginal([mu.weights[i] for i in p]),
        _marginal([nu.weights[j] for j in q]),
    )


def _split(c, mu, nu, k):
    """Atom k of mu split into two atoms of half its weight, one cost row."""
    rows = c.rows[: k + 1] + c.rows[k:]
    half = F(mu.weights[k]) / 2
    weights = mu.weights[:k] + (half, half) + mu.weights[k + 1 :]
    return kg.make_cost_matrix(rows), _marginal(weights), nu


def _shift(c, a, b):
    """a_i + b_j added to every finite cell."""
    return kg.make_cost_matrix(
        [[v if kg.is_inf(v) else v + a[i] + b[j] for j, v in enumerate(row)]
         for i, row in enumerate(c.rows)]
    )


def _scale(c, factor):
    return kg.make_cost_matrix(
        [[v if kg.is_inf(v) else v * factor for v in row] for row in c.rows]
    )


def _relaxed(c, mu, nu):
    """The relaxed dual value, or None where no finite-cost full coupling
    exists and it is undefined."""
    try:
        return kg.relaxed_dual_value(c, mu, nu).value
    except NotApplicableError:
        return None


def _levels(c):
    """Constant truncation levels: 0, the distinct finite costs up to 8
    of them, and one above the largest."""
    finite = sorted({v for _, _, v in c.finite_cells()})
    step = max(1, len(finite) // 8)
    return sorted({0, *finite[::step], c.max_finite() + 1})


def _sweep(c, mu, nu, levels):
    return [v for _, v in kg.constant_truncation_sweep(c, mu, nu, levels)]


@_settings
@given(instances())
def test_transposing_keeps_p_the_profile_and_the_sweep(inst):
    c, mu, nu = inst
    t = _transpose(c, mu, nu)
    assert kg.primal_value(*t) == kg.primal_value(c, mu, nu)
    assert kg.solve_profile(*t).breakpoints == kg.solve_profile(c, mu, nu).breakpoints
    levels = _levels(c)
    assert _sweep(*t, levels) == _sweep(c, mu, nu, levels)


@_settings
@given(instances(), st.randoms(use_true_random=False))
def test_permuting_keeps_p_the_profile_and_the_relaxed_dual(inst, rnd):
    c, mu, nu = inst
    p, q = list(range(c.nx)), list(range(c.ny))
    rnd.shuffle(p)
    rnd.shuffle(q)
    perm = _permute(c, mu, nu, p, q)
    assert kg.primal_value(*perm) == kg.primal_value(c, mu, nu)
    assert kg.solve_profile(*perm).breakpoints == kg.solve_profile(c, mu, nu).breakpoints
    assert _relaxed(*perm) == _relaxed(c, mu, nu)


@_settings
@given(instances(), st.data())
def test_splitting_an_atom_keeps_p_and_the_profile(inst, data):
    c, mu, nu = inst
    k = data.draw(st.integers(0, c.nx - 1))
    split = _split(c, mu, nu, k)
    assert kg.primal_value(*split) == kg.primal_value(c, mu, nu)
    assert kg.solve_profile(*split).breakpoints == kg.solve_profile(c, mu, nu).breakpoints


@_settings
@given(instances(), st.data())
def test_adding_row_and_column_terms_shifts_p_and_d(inst, data):
    c, mu, nu = inst
    a = data.draw(st.lists(_rationals, min_size=c.nx, max_size=c.nx))
    b = data.draw(st.lists(_rationals, min_size=c.ny, max_size=c.ny))
    shift = sum(x * w for x, w in zip(a, mu.weights)) + sum(
        y * w for y, w in zip(b, nu.weights)
    )
    shifted = _shift(c, a, b)
    p, d = kg.primal_value(c, mu, nu), kg.dual_value(c, mu, nu).value
    p2, d2 = kg.primal_value(shifted, mu, nu), kg.dual_value(shifted, mu, nu).value
    if kg.is_inf(p):
        assert kg.is_inf(p2) and kg.is_inf(d) and kg.is_inf(d2)
    else:
        assert p2 == p + shift and d2 == d + shift


@_settings
@given(instances(), st.builds(F, st.integers(1, 50), st.integers(1, 7)))
def test_scaling_costs_scales_the_profile_costs(inst, factor):
    c, mu, nu = inst
    scaled = kg.solve_profile(_scale(c, factor), mu, nu).breakpoints
    base = kg.solve_profile(c, mu, nu).breakpoints
    assert scaled == tuple((m, cost * factor) for m, cost in base)


@_settings
@given(instances())
def test_the_sweep_is_nondecreasing_and_concave_in_m(inst):
    c, mu, nu = inst
    levels = _levels(c)
    values = _sweep(c, mu, nu, levels)
    assert all(x <= y for x, y in zip(values, values[1:]))
    slopes = [
        F(v1 - v0) / (m1 - m0)
        for (m0, v0), (m1, v1) in zip(zip(levels, values), zip(levels[1:], values[1:]))
    ]
    assert all(s0 >= s1 for s0, s1 in zip(slopes, slopes[1:]))


@_settings
@given(instances())
def test_p_equals_d_and_the_witness_is_a_full_coupling_of_cost_p(inst):
    c, mu, nu = inst
    p = kg.primal_value(c, mu, nu)
    assert kg.dual_value(c, mu, nu).value == p
    witness = kg.primal_report(c, mu, nu).witness
    if kg.is_inf(p):
        assert witness is None
        return
    assert witness.row_sums.weights == mu.weights
    assert witness.col_sums.weights == nu.weights
    assert witness.mass == 1
    assert kg.is_full_coupling(witness, mu, nu)
    assert kg.cost_of(c, witness) == p


def _floats(c, mu, nu, k):
    """The instance in float mode with its costs times 10^k, each rounded
    once from the exact product."""
    factor = F(10) ** k
    rows = [[v if kg.is_inf(v) else float(v * factor) for v in row] for row in c.rows]
    return (
        kg.make_cost_matrix(rows),
        _marginal([float(w) for w in mu.weights]),
        _marginal([float(w) for w in nu.weights]),
    )


def _close(x, y, cmax):
    if kg.is_inf(x) or kg.is_inf(y):
        return x is y
    return abs(x - y) <= _REL * cmax


@pytest.mark.parametrize("k", [-9, -3, 0, 3, 9])
@settings(max_examples=8, deadline=timedelta(seconds=5))
@given(inst=instances(), rnd=st.randoms(use_true_random=False))
def test_float_p_equals_d_and_permuting_keeps_p(k, inst, rnd):
    c, mu, nu = inst
    p, q = list(range(c.nx)), list(range(c.ny))
    rnd.shuffle(p)
    rnd.shuffle(q)
    with kg.arithmetic("float"):
        fc, fmu, fnu = _floats(c, mu, nu, k)
        perm = _permute(fc, fmu, fnu, p, q)
        cmax = fc.max_finite()
        value = kg.primal_value(fc, fmu, fnu)
        assert _close(value, kg.dual_value(fc, fmu, fnu).value, cmax)
        assert _close(value, kg.primal_value(*perm), cmax)


@st.composite
def cell_sets(draw, square=False):
    """A cell set L with sides 1 to 9 and marginals over its sides (one
    shared marginal if ``square``), about a third of the cells in L."""
    nx = draw(st.integers(1, 9))
    ny = nx if square else draw(st.integers(1, 9))
    flags = st.lists(st.sampled_from([True, False, False]), min_size=ny, max_size=ny)
    L = kg.cellset_from_matrix(draw(st.lists(flags, min_size=nx, max_size=nx)))
    mu = _marginal(draw(st.lists(_rationals, min_size=nx, max_size=nx)))
    if square:
        return L, mu
    return L, mu, _marginal(draw(st.lists(_rationals, min_size=ny, max_size=ny)))


def _cells(rows):
    return kg.cellset_from_matrix([list(row) for row in rows])


@_cover_settings
@given(cell_sets())
def test_transposing_a_cell_set_keeps_its_cover_value(inst):
    L, mu, nu = inst
    m, _ = kg.cover_value(L, mu, nu)
    m_t, cert = kg.cover_value(_cells(zip(*L.rows)), nu, mu)
    assert m_t == m == cert.value
    # the transposed cover, rows and columns swapped, covers L and weighs m
    assert all(i in cert.cols or j in cert.rows for i, j in L.cells())
    weight = sum(mu.weights[i] for i in cert.cols) + sum(nu.weights[j] for j in cert.rows)
    assert weight == m


@_cover_settings
@given(cell_sets(), st.randoms(use_true_random=False))
def test_permuting_a_cell_set_keeps_its_cover_value(inst, rnd):
    L, mu, nu = inst
    p, q = list(range(L.nx)), list(range(L.ny))
    rnd.shuffle(p)
    rnd.shuffle(q)
    permuted = _cells([[L.rows[i][j] for j in q] for i in p])
    pmu, pnu = _marginal([mu.weights[i] for i in p]), _marginal([nu.weights[j] for j in q])
    assert kg.cover_value(permuted, pmu, pnu)[0] == kg.cover_value(L, mu, nu)[0]


@_cover_settings
@given(cell_sets(), st.data())
def test_splitting_a_weighted_row_atom_keeps_the_cover_value(inst, data):
    L, mu, nu = inst
    weighted = [i for i, w in enumerate(mu.weights) if w > 0]
    k = data.draw(st.sampled_from(weighted)) if weighted else 0
    split = _cells(L.rows[: k + 1] + L.rows[k:])
    half = F(mu.weights[k]) / 2
    smu = _marginal(mu.weights[:k] + (half, half) + mu.weights[k + 1 :])
    assert kg.cover_value(split, smu, nu)[0] == kg.cover_value(L, mu, nu)[0]


@_cover_settings
@given(cell_sets(square=True), st.randoms(use_true_random=False))
def test_a_symmetric_permutation_keeps_the_capacity(inst, rnd):
    L, lam = inst
    p = list(range(L.nx))
    rnd.shuffle(p)
    permuted = _cells([[L.rows[i][j] for j in p] for i in p])
    plam = _marginal([lam.weights[i] for i in p])
    assert kg.capacity_value(permuted, plam)[0] == kg.capacity_value(L, lam)[0]
