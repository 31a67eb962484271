"""``modes.coerce`` reads plain tokens ("D" and "D/E" in ASCII digits) on
ints, and gives what ``Fraction``'s string parser gives; ``modes._plain``
gives them in engine form, a reduced (p, q) in exact mode and a float in
float mode.

Every check compares the value, its type and its ``repr`` with a reference
written here: ``Fraction(token)`` in exact mode (an ``int`` when integral)
and ``float(Fraction(token))`` in float mode.  Tokens outside the fast
branch keep their value or their error class and text.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kantgap import modes
from kantgap.errors import InputError

BOTH = [modes.EXACT, modes.FLOAT]


def _reference(token):
    """What the general path makes of ``token``: (type, repr), or the error
    it raises on a zero denominator."""
    try:
        f = Fraction(token)
    except ZeroDivisionError:
        return InputError, f"malformed number {token[:30]!r}"
    if modes.is_exact():
        v = int(f) if f.denominator == 1 else f
    else:
        v = float(f)
    return type(v), repr(v)


def _read(token):
    try:
        v = modes.coerce(token)
    except InputError as exc:
        return type(exc), str(exc)
    return type(v), repr(v)


# runs of ASCII digits: short ones with leading zeros, and long ones
_runs = st.one_of(
    st.builds(
        lambda zeros, digits: zeros + digits,
        st.text("0", max_size=3),
        st.text("0123456789", min_size=1, max_size=20),
    ),
    st.text("0123456789", min_size=1, max_size=300),
)
_tokens = st.one_of(_runs, st.builds(lambda d, e: f"{d}/{e}", _runs, _runs))


@given(mode=st.sampled_from(BOTH), token=_tokens)
def test_plain_tokens_read_as_the_fraction_parser_reads_them(mode, token):
    zero_denominator = "/" in token and not token.partition("/")[2].strip("0")
    assert (modes._plain(token) is None) == zero_denominator
    with modes.arithmetic(mode):
        assert _read(token) == _reference(token)
        if not zero_denominator:  # _plain gives the engine form
            f = Fraction(token)
            want = (f.numerator, f.denominator) if modes.is_exact() else float(f)
            assert modes._plain(token) == want


@pytest.mark.parametrize("mode", BOTH)
@pytest.mark.parametrize(
    "token",
    ["0", "007", "12/34", "0/7", "4/2", "9" * 300, "1/" + "3" * 300, "0" * 300 + "/1"],
)
def test_fixed_plain_tokens(mode, token):
    assert modes._plain(token) is not None
    with modes.arithmetic(mode):
        assert _read(token) == _reference(token)


@pytest.mark.parametrize("mode", BOTH)
@pytest.mark.parametrize("token", ["5/0", "00/000"])
def test_zero_denominators_keep_their_error(mode, token):
    assert modes._plain(token) is None
    with modes.arithmetic(mode):
        assert _read(token) == (InputError, f"malformed number {token!r}")


# tokens outside the fast branch, with the value the general path gives them
_GENERAL = [
    ("9" * 301, int("9" * 301), float("9" * 301)),
    ("1/" + "7" * 301, Fraction(1, int("7" * 301)), 1 / int("7" * 301)),
    ("١/٢", Fraction(1, 2), 0.5),  # Arabic-Indic digits
    ("1_000", 1000, 1000.0),
    (" 1/2", Fraction(1, 2), 0.5),
    ("+1/2", Fraction(1, 2), 0.5),
    ("-0", 0, 0.0),
]


@pytest.mark.parametrize("mode", BOTH)
@pytest.mark.parametrize("token, exact, inexact", _GENERAL)
def test_other_tokens_keep_their_value(mode, token, exact, inexact):
    assert modes._plain(token) is None
    with modes.arithmetic(mode):
        want = exact if mode == modes.EXACT else inexact
        assert _read(token) == (type(want), repr(want))


@pytest.mark.parametrize("mode", BOTH)
@pytest.mark.parametrize("token", ["²", "1/²", "", "/", "1/", "/2", "1/2/3"])
def test_other_tokens_keep_their_error(mode, token):
    assert modes._plain(token) is None
    with modes.arithmetic(mode):
        assert _read(token) == (InputError, f"malformed number {token!r}")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no settable int-digit limit"
)
@pytest.mark.parametrize("mode", BOTH)
def test_the_fast_branch_stays_below_the_least_digit_limit(mode):
    token = "8" * 300 + "/" + "3" * 300
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least value it accepts
    try:
        with modes.arithmetic(mode):
            got = _read(token)
    finally:
        sys.set_int_max_str_digits(old)
    with modes.arithmetic(mode):
        assert got == _reference(token)
