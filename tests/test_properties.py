"""Property-based checks of the structural invariants."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import kantgap as kg

settings.register_profile("ci", max_examples=40, deadline=None)
settings.load_profile("ci")

_small = st.integers(min_value=0, max_value=6)
_pos = st.integers(min_value=1, max_value=6)


@st.composite
def instances(draw, max_side=3, inf_allowed=True):
    nx = draw(st.integers(1, max_side))
    ny = draw(st.integers(1, max_side))
    cells = []
    for _ in range(nx):
        row = []
        for _ in range(ny):
            if inf_allowed and draw(st.booleans()) and draw(st.booleans()):
                row.append(kg.INF)
            else:
                row.append(F(draw(_small), draw(_pos)))
        cells.append(row)
    c = kg.make_cost_matrix(cells)

    def marg(n):
        w = [draw(st.integers(0, 4)) for _ in range(n)]
        if not any(w):
            w[0] = 1
        t = sum(w)
        return kg.make_marginal(kg.DiscreteSpace(n), [F(x, t) for x in w])

    return c, marg(nx), marg(ny)


@given(instances())
def test_cost_infinite_iff_charged_infinite_cell(inst):
    c, mu, nu = inst
    pi = kg.product_coupling(mu, nu)
    charged_inf = any(kg.is_inf(c[ij]) for ij in pi.entries)
    assert kg.is_inf(kg.cost_of(c, pi)) == charged_inf


@given(instances(inf_allowed=False), st.integers(0, 8), st.integers(0, 8))
def test_truncation_monotone_cellwise(inst, lo, hi):
    c, mu, nu = inst
    lo, hi = min(lo, hi), max(lo, hi)
    a = kg.truncate_at(c, lo)
    b = kg.truncate_at(c, hi)
    for i, j, v in a.cells():
        assert v <= b[(i, j)]
    assert kg.primal_value(a, mu, nu) <= kg.primal_value(b, mu, nu)


@given(instances())
def test_profile_convex_and_matches_oracle(inst):
    c, mu, nu = inst
    prof = kg.solve_profile(c, mu, nu)
    assert prof.breakpoints == kg.brute_profile(c, mu, nu)
    slopes = [
        (c1 - c0) / (m1 - m0)
        for (m0, c0), (m1, c1) in zip(prof.breakpoints, prof.breakpoints[1:])
    ]
    assert all(a <= b for a, b in zip(slopes, slopes[1:]))


@given(instances())
def test_no_gap_or_both_infinite(inst):
    c, mu, nu = inst
    p = kg.primal_value(c, mu, nu)
    d = kg.dual_value(c, mu, nu).value
    if kg.is_inf(p):
        assert kg.is_inf(d)
    else:
        assert p == d


@given(instances())
def test_partial_values_nonincreasing_in_eps(inst):
    c, mu, nu = inst
    prof = kg.solve_profile(c, mu, nu)
    vals = [kg.evaluate_profile(prof, 1 - F(k, 10)) for k in range(11)]
    finite_tail = [v for v in vals if not kg.is_inf(v)]
    # values for smaller shipped mass never exceed those for larger mass
    assert all(a >= b for a, b in zip(finite_tail, finite_tail[1:]))


@given(instances(max_side=3), st.data())
def test_cover_duality_and_monotonicity(inst, data):
    c, mu, nu = inst
    nx, ny = c.nx, c.ny
    small = data.draw(
        st.sets(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)))
    )
    extra = data.draw(
        st.sets(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)))
    )
    A = kg.cellset_from_pairs(nx, ny, sorted(small))
    B = kg.cellset_from_pairs(nx, ny, sorted(small | extra))
    va, _ = kg.cover_value(A, mu, nu)
    vb, _ = kg.cover_value(B, mu, nu)
    assert va <= vb
    assert va == kg.max_mass_on(A, mu, nu)[0] == kg.brute_cover(A, mu, nu)


@given(instances(max_side=3, inf_allowed=False), st.data())
def test_shrink_postconditions_hold(inst, data):
    c, mu, nu = inst
    n, m = mu.space.size, nu.space.size
    f = [F(data.draw(st.integers(0, 2)), 2) for _ in range(n)]
    g = [F(data.draw(st.integers(0, 2)), 2) for _ in range(m)]
    fm = sum(a * w for a, w in zip(f, mu.weights))
    gm = sum(a * w for a, w in zip(g, nu.weights))
    if fm == 0 or gm == 0:
        return
    g = [a * fm / gm for a in g]
    fmu = kg.make_marginal(mu.space, [a * w for a, w in zip(f, mu.weights)])
    gnu = kg.make_marginal(nu.space, [a * w for a, w in zip(g, nu.weights)])
    pi = kg.product_coupling(fmu, gnu, 1 / fmu.mass)
    sh = kg.shrink_to_partial(pi, mu, nu)  # internal postconditions re-assert
    assert sh.mass <= pi.mass
    rows, cols = kg.coupling_marginals(sh)
    assert kg.dominates(mu, rows) and kg.dominates(nu, cols)


@given(instances(max_side=3, inf_allowed=False), st.integers(0, 9))
def test_complete_partial_exactness(inst, tenths):
    c, mu, nu = inst
    if not (mu.is_probability() and nu.is_probability()):
        return
    m = F(tenths, 10)
    prof = kg.solve_profile(c, mu, nu)
    if m > prof.max_mass:
        return
    part = kg.optimal_coupling_at(c, mu, nu, m)
    bound = c.max_finite()
    full = kg.complete_partial(part, mu, nu, cost=c, bound=bound)
    assert kg.is_full_coupling(full, mu, nu)
    assert kg.cost_of(c, full) <= kg.cost_of(c, part) + (1 - m) * bound


# Mersenne and other well-known primes: sums over them need a common
# denominator of hundreds of bits
_PRIMES = (1_000_003, 998_244_353, 1_000_000_007, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1)
_coupling_masses = st.one_of(
    st.just(0),
    st.integers(0, 10**6),
    st.builds(F, st.integers(0, 10**6), st.integers(1, 60)),
    st.builds(F, st.integers(0, 10**40), st.sampled_from(_PRIMES)),
)


@st.composite
def coupling_entries(draw, masses):
    nx, ny = draw(_pos), draw(_pos)
    cells = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    return nx, ny, draw(st.dictionaries(cells, masses, max_size=3 * nx * ny))


def _plain_sums(nx, ny, entries):
    """Row, column and total sums added up entry by entry."""
    rows, cols, total = [0] * nx, [0] * ny, 0
    for (i, j), m in entries.items():
        rows[i] += m
        cols[j] += m
        total += m
    return rows, cols, total


@given(coupling_entries(_coupling_masses))
def test_coupling_sums_equal_plain_fraction_sums(case):
    nx, ny, entries = case
    pi = kg.make_coupling(kg.DiscreteSpace(nx), kg.DiscreteSpace(ny), entries)
    rows, cols, total = _plain_sums(nx, ny, entries)
    assert list(pi.row_sums.weights) == rows
    assert list(pi.col_sums.weights) == cols
    assert pi.mass == total == pi.row_sums.mass == pi.col_sums.mass
    assert pi.entries == {ij: m for ij, m in entries.items() if m != 0}


@given(coupling_entries(st.floats(0, 1e6)))
def test_float_coupling_sums_run_in_entry_order(case):
    nx, ny, entries = case
    with kg.arithmetic("float"):
        pi = kg.make_coupling(kg.DiscreteSpace(nx), kg.DiscreteSpace(ny), entries)
    rows, cols, total = _plain_sums(nx, ny, entries)
    assert list(pi.row_sums.weights) == rows
    assert list(pi.col_sums.weights) == cols
    assert pi.mass == total
