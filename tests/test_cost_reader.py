"""``make_cost_matrix`` reads a grid straight to engine form.

A matrix holds its finite cells scaled by ``lc`` (``CostMatrix``), and a
plain ``"p/q"`` or digit token is read on ints, with no ``Fraction``
built.  The reference here reads every entry on its own through
``core._coerce_cost``, in row-major order: the values the matrix derives
must equal it in value and type (and, in float mode, in the sign of a
zero), its scaled cells and ``lc`` must be what ``core._ints`` makes of
those values, and a grid with a bad entry must raise the error of its first
bad entry, whatever other bad entries follow it.
"""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

import kantgap as kg
from kantgap import core, modes
from kantgap.errors import InputError

BOTH = [modes.EXACT, modes.FLOAT]

_plain = st.one_of(
    st.integers(0, 999).map(str),
    st.integers(0, 99).map(lambda n: f"{n:03d}"),  # zero-padded: "007"
    st.tuples(st.integers(0, 60), st.integers(1, 12), st.integers(1, 4)).map(
        lambda t: f"{t[0] * t[2]}/{t[1] * t[2]}"  # unreduced: "14/6"
    ),
    st.sampled_from(["0/5", "000/010", "12/4"]),
)
_inf = st.one_of(
    st.sampled_from(["inf", "INF", "Inf", " inf", "iNf ", "  INF  "]), st.just(kg.INF)
)
_decimal = st.sampled_from(
    ["0.5", "1.25", "3.", ".75", "2.50", "1e3", "2.5E-2", "1e-3", "7E+1", "1_000", " 4 ", "٣"]
)
_number = st.one_of(
    st.integers(0, 10**6),
    st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.1, 2.0, F(7, 3), F(4, 2)]),
    st.booleans(),
)
_bad = st.sampled_from(
    ["-1", "-3/4", "-0.5", -2, -0.25, "x", "1/0", "nan", "", "1/2/3", "--1", None, [1]]
)
_good = st.one_of(_plain, _plain, _inf, _decimal, _number)


def _shape(value):
    return type(value), repr(value)


def _reference(rows):
    """Each entry read on its own in row-major order: the (i, j, value) of
    every cell, or the (type, message) of the first bad entry."""
    cells = []
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            try:
                cells.append((i, j, core._coerce_cost(v)))
            except InputError as exc:
                return type(exc), str(exc)
    return cells


def _grid(entries, width):
    return [entries[k : k + width] for k in range(0, len(entries) - width + 1, width)]


@settings(max_examples=150)
@given(
    mode=st.sampled_from(BOTH),
    width=st.integers(1, 6),
    entries=st.lists(_good, min_size=6, max_size=36),
    bad=st.one_of(st.just([]), st.lists(st.tuples(st.integers(0, 35), _bad), max_size=3)),
)
def test_the_reader_matches_a_per_entry_read(mode, width, entries, bad):
    for k, v in bad:  # half the grids hold no bad entry
        entries.insert(k, v)
    rows = _grid(entries, width)
    with modes.arithmetic(mode):
        expected = _reference(rows)
        try:
            c = kg.make_cost_matrix(rows)
        except InputError as exc:
            assert (type(exc), str(exc)) == expected
            return
        assert isinstance(expected, list), expected
        grid = [[_shape(v) for _, _, v in expected[k : k + width]]
                for k in range(0, len(expected), width)]
        assert [[_shape(v) for v in row] for row in c.rows] == grid
        finite = [(i, j, v) for i, j, v in expected if v is not kg.INF]
        assert [(i, j, *_shape(v)) for i, j, v in c.finite_cells()] == [
            (i, j, *_shape(v)) for i, j, v in finite
        ]
        scaled, lc = core._ints([v for _, _, v in finite])
        assert [(i, j, *_shape(x)) for i, j, x in c.scaled] == [
            (i, j, *_shape(x)) for (i, j, _), x in zip(finite, scaled)
        ]
        assert c.lc == lc
        assert c == core._matrix(len(rows), width, finite)


@given(
    mode=st.sampled_from(BOTH),
    before=st.lists(_plain, max_size=8),
    first=_bad,
    second=_bad,
    after=st.lists(st.one_of(_plain, _bad), max_size=8),
)
def test_the_first_bad_entry_raises(mode, before, first, second, after):
    # a second bad entry, whether its token was read before or not, never
    # decides the error
    entries = [*before, first, *after, second, first]
    with modes.arithmetic(mode):
        expected = _reference([entries])
        assert not isinstance(expected, list)
        for rows in ([entries], [[v] for v in entries]):
            try:
                kg.make_cost_matrix(rows)
            except InputError as exc:
                assert (type(exc), str(exc)) == expected
            else:
                raise AssertionError("no error raised")
