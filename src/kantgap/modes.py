"""Arithmetic mode: exact rationals (default) or floats with tolerance.

The whole library is polymorphic over Python's numeric tower.  In exact mode
every weight, cost and potential is an ``int`` or ``fractions.Fraction`` and
all identities (duality, complementary slackness, cover/matching equality)
hold with zero tolerance.  Float mode trades exactness for speed on large
sweeps; comparisons then use a fixed absolute tolerance of 1e-9.

The mode is scoped to a context: ``with arithmetic(FLOAT):`` sets it for the
code inside the block, in that thread only, and restores it on exit.  Other
threads, including ``ThreadPoolExecutor`` workers, start in exact mode.
Objects built under one mode should not be mixed with objects built under
the other.

This module is the one place where a number is built, reduced and
unscaled.  ``coerce`` is the one place where an outside value becomes a
number.  It is a pure function of its input and the mode, so the ``core``
constructors call it once per distinct string token of a call and reuse
the value.  The tokens files are made of, ``"p/q"`` and integers in plain
digits, are read on ints by ``_plain``, straight to the flow engine's form:
a reduced (p, q) in exact mode, the float p / q in float mode.  ``coerce``
builds its number from that, and ``core``'s cost reader keeps it as it is,
so the two share one reading of a token; it gives the value, type and error
of the general path, which every other input takes.  ``div`` brings every
engine number back, divided by its scale: an exact quotient, or a float in
float mode, the engine's int 0 included.  ``_reduced`` is the one rule for
an exact value's form, an int when it is integral, which ``coerce``,
``div`` and the sums of ``core`` share.  Error messages show a number
through ``_text``, at most 30 characters of it and only the size of one of
more than 30 digits, and a rejected input through ``_shown``, which quotes
a string.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .errors import InputError

EXACT = "exact"
FLOAT = "float"

FLOAT_TOL = 1e-9

_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\s*\Z")

# the form ``_plain`` reads, "D" or "D/E" in ASCII digits with E not all
# zeros, at any length: ``coerce`` names the digit limit for the longer ones
_PLAIN_TOKEN = re.compile(r"\d+(/\d*[1-9]\d*)?", re.ASCII)

_PLAIN_DIGITS = 300

_mode: ContextVar[str] = ContextVar("kantgap_mode", default=EXACT)


def get_mode() -> str:
    return _mode.get()


def is_exact() -> bool:
    return _mode.get() == EXACT


@contextmanager
def arithmetic(mode: str):
    """Run the block in the given arithmetic mode, then restore the old one."""
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    token = _mode.set(mode)
    try:
        yield
    finally:
        _mode.reset(token)


def _shown(x) -> str:
    """A rejected input as error messages show it: a string cut to its
    first 30 characters and quoted, any other input as ``_text`` shows its
    ``repr``."""
    if isinstance(x, str):
        return repr(x[:30])
    return _text(x, repr)


def _text(x, show=str) -> str:
    """A number as error messages show it, so a huge one makes a short
    message: ``show(x)``, by default its ``str`` (3/2 reads 3/2), cut to 30
    characters, an int or a Fraction with a part of more than 30 digits by
    its size (before ``str`` would meet the int digit limit), and x's type
    where ``show`` raises.  Never raises."""
    if isinstance(x, (int, Fraction)):
        size = max(abs(x.numerator), x.denominator)
        if size >= 10**30:
            return f"<a number of about {round(size.bit_length() * math.log10(2))} digits>"
    try:
        text = show(x)
    except Exception:  # the message is built for an error already being raised
        return f"<a {type(x).__name__}>"
    return text if len(text) <= 30 else text[:30] + "..."


def _plain(x):
    """A ``str`` token "D" or "D/E", whose D and E are runs of 1 to
    ``_PLAIN_DIGITS`` ASCII digits and E not all zeros, in engine form: in
    exact mode its reduced (p, q) on ints (q = 1 for an integer), in float
    mode the float p / q.  None for any other input, in either mode.  The
    cap keeps ``int`` below the smallest settable int-digit limit (640) and
    every quotient a finite, normal float."""
    if type(x) is not str or not x.isascii():
        return None
    d, slash, e = x.partition("/")
    if not (d.isdigit() and len(d) <= _PLAIN_DIGITS):
        return None
    if slash and not (e.isdigit() and len(e) <= _PLAIN_DIGITS and e.strip("0")):
        return None
    p, q = int(d), int(e) if slash else 1
    if not is_exact():
        return p / q
    g = math.gcd(p, q)
    return p // g, q // g


def coerce(x):
    """Bring a finite numeric input into the current mode.

    Exact mode keeps integral values as ``int`` (cheap arithmetic) and
    everything else as ``Fraction``.  Floats are read through their decimal
    repr so 0.1 becomes 1/10, not the binary expansion.  Strings accept the
    ``"p/q"`` form.  Bools, ``None``, malformed strings, zero denominators,
    nan, infinite floats and exponents beyond
    ``sys.get_int_max_str_digits()`` (slow powers of ten) raise
    ``InputError`` in both modes, and so, in float mode, do well-formed
    values too large for a float, and in both a plain token with more
    digits than that limit, with a message that says so.

    A plain token is read by ``_plain``, without ``Fraction``'s string
    parser: the exact value is the same int or reduced Fraction, and the
    float is the same correctly rounded quotient, so no value, type or
    error changes.
    """
    if (v := _plain(x)) is not None:
        if type(v) is float:
            return v
        p, q = v
        return p if q == 1 else Fraction(p, q)
    if isinstance(x, str) and (e := _EXPONENT.search(x)):
        limit = sys.get_int_max_str_digits() or math.inf  # 0: no limit
        if len(digits := e.group(1).replace("_", "")) > limit or int(digits) > limit:
            raise InputError(f"number exponent beyond +-{limit}: {_shown(x)}")
    if isinstance(x, float) and not math.isfinite(x):
        raise InputError(f"non-finite number {_shown(x)}; use the string tokens")
    if isinstance(x, bool):
        raise InputError(f"malformed number {_shown(x)}")
    exact = is_exact()
    if exact and isinstance(x, int):
        return x
    try:
        if not exact:
            v = float(Fraction(x) if isinstance(x, str) else x)
        elif isinstance(x, Fraction):
            v = x
        else:
            v = Fraction(repr(x) if isinstance(x, float) else x)
    except OverflowError as exc:
        raise InputError(f"too large for a float: {_shown(x)}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        if isinstance(exc, ValueError) and isinstance(x, str) and _PLAIN_TOKEN.fullmatch(x):
            limit = sys.get_int_max_str_digits()
            raise InputError(f"a number has more than {limit} digits: {_shown(x)}") from exc
        raise InputError(f"malformed number {_shown(x)}") from exc
    if exact:
        return _reduced(v)
    if not math.isfinite(v):  # a non-float input such as Decimal("nan")
        raise InputError(f"non-finite number {_shown(x)}")
    return v


def div(a, b):
    """a / b in the current mode: exact in exact mode (int/int would give a
    float), an int when the quotient is integral.  Two ints (not bools)
    divide on ints, with at most one ``Fraction(a, b)``; every other pair
    takes ``Fraction(a) / Fraction(b)``.  b = 0 raises
    ``ZeroDivisionError``."""
    if not is_exact():
        return a / b
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _reduced(Fraction(a) / Fraction(b))


def _reduced(x):
    """An exact value as ``coerce`` gives a number, an int when it is
    integral; a float as it is."""
    return x if type(x) is float or x.denominator != 1 else x.numerator


def tolerance():
    return 0 if is_exact() else FLOAT_TOL


def eq(a, b) -> bool:
    if is_exact():
        return a == b
    return abs(a - b) <= FLOAT_TOL


def leq(a, b) -> bool:
    if is_exact():
        return a <= b
    return a - b <= FLOAT_TOL


def geq(a, b) -> bool:
    return leq(b, a)


def is_positive(x) -> bool:
    """True when x is positive beyond tolerance (used for residual checks)."""
    return x > tolerance()
