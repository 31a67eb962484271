"""The ``covers`` readers on the engine's ints, beyond the oracle's sizes.

``kellerer.cover_from_run`` sums the cover's weights on the run's scaled
weights, ``capacity_value`` builds L u L^T from the cells and reads f from
three halves, ``decompose_from_run`` decides charging by membership in the
witness, whose entries ``core.product_coupling`` unscales once per distinct
product, and ``modes.div`` divides two ints on ints.  Every check compares
with a reference written here on the marginals' own numbers: ``Fraction``
sums in exact mode, float sums in float mode (within ``_TOL``, since the
summation order may differ).  Grids go up to 24 x 24, square and
rectangular, with weightless atoms and with null and non-null cell sets.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import kantgap as kg
from kantgap import modes
from kantgap.cli import main
from kantgap.kellerer import cover_from_run, decompose_from_run, matching_run

BOTH = [modes.EXACT, modes.FLOAT]

# float references add the same numbers in another order
_TOL = 1e-12


def _same(value, ref, exact: bool) -> bool:
    """Equal in exact mode, down to the type (an int when integral);
    within _TOL in float mode."""
    if exact:
        ref = Fraction(ref)
        kind = int if ref.denominator == 1 else Fraction
        return type(value) is kind and value == ref
    return math.isclose(value, ref, rel_tol=0, abs_tol=_TOL)


def _marginal(rng, n: int, zeros: bool, mass: Fraction):
    """A marginal of n "p/q" tokens with total ``mass``; with ``zeros``,
    about a third of the atoms weigh nothing (never all of them)."""
    w = [rng.randint(1, 9) for _ in range(n)]
    if zeros:
        w = [0 if rng.random() < 1 / 3 else x for x in w]
    if not any(w):
        w[rng.randrange(n)] = 1
    t = sum(w)
    return kg.make_marginal(
        kg.DiscreteSpace(n), [f"{x * mass.numerator}/{t * mass.denominator}" for x in w]
    )


@st.composite
def _cases(draw, square=None):
    """(mode, L, mu, nu), on a square grid if ``square`` (else drawn).
    Square grids share one marginal, as the capacity needs; both marginals
    have one mass, 1 or another fraction; a null L keeps only cells on a
    weightless row or column.  Hypothesis draws the shape and the kind of
    case, and a seeded ``random.Random`` the weights and cells, so that a
    large grid gets varied weights and cells, not hypothesis's smallest."""
    mode = draw(st.sampled_from(BOTH))
    nx = draw(st.integers(1, 24))
    if square is None:
        square = draw(st.booleans())
    ny = nx if square else draw(st.integers(1, 24))
    zeros = draw(st.booleans())
    mass = draw(st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(5, 4)]))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5]))
    null = draw(st.integers(0, 3)) == 0
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    with modes.arithmetic(mode):
        mu = _marginal(rng, nx, zeros, mass)
        nu = mu if square else _marginal(rng, ny, zeros, mass)
    cells = [(i, j) for i in range(nx) for j in range(ny) if rng.random() < density]
    if null:  # only weightless rows and columns
        cells = [(i, j) for i, j in cells if mu.weights[i] == 0 or nu.weights[j] == 0]
    return mode, kg.cellset_from_pairs(nx, ny, cells), mu, nu


@given(_cases())
def test_cover_weight_is_the_sum_of_the_cover_weights(case):
    mode, L, mu, nu = case
    exact = mode == modes.EXACT
    with modes.arithmetic(mode):
        run = matching_run(L, mu, nu)
        value, cert = cover_from_run(run, L)
    zero = Fraction(0) if exact else 0.0
    ref = sum((mu.weights[i] for i in cert.rows), zero) + sum(
        (nu.weights[j] for j in cert.cols), zero
    )
    assert _same(cert.value, ref, exact)
    assert value == run.shipped
    assert all(i in cert.rows or j in cert.cols for i, j in L.cells())


@given(_cases(square=True))
def test_capacity_is_half_the_symmetric_cover(case):
    mode, L, mu, _nu = case
    exact = mode == modes.EXACT
    n = L.nx
    with modes.arithmetic(mode):
        gamma, f = kg.capacity_value(L, mu)
        sym = kg.cellset_from_pairs(n, n, [c for i, j in L.cells() for c in ((i, j), (j, i))])
        _m, cert = kg.cover_value(sym, mu, mu)
    half = Fraction(1, 2) if exact else 0.5
    f_ref = [((i in cert.rows) + (i in cert.cols)) * half for i in range(n)]
    assert all(_same(v, r, exact) for v, r in zip(f, f_ref))
    zero = Fraction(0) if exact else 0.0
    weight = sum((v * w for v, w in zip(f_ref, mu.weights)), zero)
    assert _same(gamma, weight, exact)
    assert all(f[i] + f[j] >= 1 for i, j in L.cells())


@given(_cases())
def test_witness_is_the_normalised_product(case):
    mode, L, mu, nu = case
    exact = mode == modes.EXACT
    with modes.arithmetic(mode):
        run = matching_run(L, mu, nu)
        dec = decompose_from_run(run, L)
    if dec.is_null:
        assert run.shipped == 0
        assert all(mu.weights[i] == 0 for i in dec.null_rows)
        assert all(nu.weights[j] == 0 for j in dec.null_cols)
        assert all(i in dec.null_rows or j in dec.null_cols for i, j in L.cells())
        return
    one = Fraction(1) if exact else 1.0
    ref = {
        (i, j): one * a * b / mu.mass
        for i, a in enumerate(mu.weights)
        for j, b in enumerate(nu.weights)
        if a * b
    }
    entries = dec.witness.entries
    assert entries.keys() == ref.keys()
    assert all(_same(entries[ij], ref[ij], exact) for ij in ref)
    assert any(ij in entries for ij in L.cells())


_big = st.integers(-(10**300), 10**300)


@given(
    st.one_of(_big, st.integers(-50, 50), st.just(0)),
    st.one_of(_big, st.integers(-50, 50)).filter(bool),
)
def test_div_on_ints_matches_fraction(a, b):
    got = modes.div(a, b)
    ref = Fraction(a) / Fraction(b)
    assert got == ref
    assert type(got) is (int if ref.denominator == 1 else Fraction)


@pytest.mark.parametrize("a", [0, 1, -7, 10**400])
def test_div_by_zero_raises(a):
    with pytest.raises(ZeroDivisionError):
        modes.div(a, 0)


@pytest.mark.parametrize(
    "a, b, calls",
    [
        (3, 6, [(3, 6)]),  # one Fraction(a, b) when the quotient is not integral
        (6, -3, []),  # none when it is
        (True, 2, [(True,), (2,)]),
        (3, True, [(3,), (True,)]),
        (0.5, 2, [(0.5,), (2,)]),
        (Fraction(3, 2), 3, [(Fraction(3, 2),), (3,)]),
    ],
)
def test_div_takes_the_int_path_only_for_two_ints(monkeypatch, a, b, calls):
    seen = []

    def spy(*args):
        seen.append(args)
        return Fraction(*args)

    monkeypatch.setattr(modes, "Fraction", spy)
    got = modes.div(a, b)
    ref = Fraction(a) / Fraction(b)
    assert seen == calls
    assert got == ref and type(got) is (int if ref.denominator == 1 else Fraction)


@pytest.mark.parametrize("flag", [[], ["--float"]])
def test_a_tiny_product_mass_still_charges(tmp_path, capsys, flag):
    """The product coupling puts 1e-10 on the one cell of L: below the float
    tolerance, yet positive, so it charges L in both modes."""
    problem = tmp_path / "p.json"
    weights = [0.99999, 0.00001]
    problem.write_text(
        json.dumps({"nx": 2, "ny": 2, "mu": weights, "nu": weights, "cost": [[0, 1], [1, 0]]})
    )
    cells = tmp_path / "L.json"
    cells.write_text(json.dumps({"pairs": [[1, 1]]}))
    assert main([*flag, "covers", str(problem), "--cells", str(cells)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["null_for_all_couplings"] is False
    assert [1, 1] in [entry[:2] for entry in doc["decomposition"]["witness"]]
