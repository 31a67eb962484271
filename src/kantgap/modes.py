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

``coerce`` is the one place where an outside value becomes a number.  It
is a pure function of its input and the mode, so the ``core`` constructors
call it once per distinct string token of a call and reuse the value.
Error messages show at most 30 characters of a rejected string or of any
other rejected input's ``repr``, and only the size of an int of more than
30 digits.
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
    """A rejected input as error messages show it, so a huge input makes a
    short message: a string cut to its first 30 characters, an int of more
    than 30 digits by its size, and any other input's ``repr`` cut to 30
    characters, or its type where the ``repr`` fails (it raises on a
    Fraction whose numerator is beyond the digit limit).  Never raises."""
    if isinstance(x, str):
        return repr(x[:30])
    if isinstance(x, int) and abs(x) >= 10**30:
        return f"<an int of about {round(abs(x).bit_length() * math.log10(2))} digits>"
    try:
        text = repr(x)
    except Exception:  # the message is built for an error already being raised
        return f"<a {type(x).__name__}>"
    return text if len(text) <= 30 else text[:30] + "..."


def coerce(x):
    """Bring a finite numeric input into the current mode.

    Exact mode keeps integral values as ``int`` (cheap arithmetic) and
    everything else as ``Fraction``.  Floats are read through their decimal
    repr so 0.1 becomes 1/10, not the binary expansion.  Strings accept the
    ``"p/q"`` form.  Bools, ``None``, malformed strings, zero denominators,
    nan, infinite floats and exponents beyond
    ``sys.get_int_max_str_digits()`` (slow powers of ten) raise
    ``InputError`` in both modes, and so, in float mode, do well-formed
    values too large for a float, with a message that says so.
    """
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
        raise InputError(f"malformed number {_shown(x)}") from exc
    if exact:
        return int(v) if v.denominator == 1 else v
    if not math.isfinite(v):  # a non-float input such as Decimal("nan")
        raise InputError(f"non-finite number {_shown(x)}")
    return v


def div(a, b):
    """Exact division in exact mode (int/int would give a float)."""
    if not is_exact():
        return a / b
    f = Fraction(a) / Fraction(b)
    return int(f) if f.denominator == 1 else f


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
