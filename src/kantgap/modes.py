"""Global arithmetic mode: exact rationals (default) or floats with tolerance.

The whole library is polymorphic over Python's numeric tower.  In exact mode
every weight, cost and potential is an ``int`` or ``fractions.Fraction`` and
all identities (duality, complementary slackness, cover/matching equality)
hold with zero tolerance.  Float mode trades exactness for speed on large
sweeps; comparisons then use a fixed absolute tolerance of 1e-9.

The mode is a per-run global.  Objects built under one mode should not be
mixed with objects built under the other.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

FLOAT_TOL = 1e-9

_state = {"mode": EXACT}


def set_mode(mode: str) -> None:
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown arithmetic mode {mode!r}")
    _state["mode"] = mode


def get_mode() -> str:
    return _state["mode"]


def is_exact() -> bool:
    return _state["mode"] == EXACT


@contextmanager
def arithmetic(mode: str):
    """Temporarily switch the arithmetic mode (mainly for tests)."""
    old = get_mode()
    set_mode(mode)
    try:
        yield
    finally:
        set_mode(old)


def coerce(x):
    """Bring a finite numeric input into the current mode.

    Exact mode keeps integral values as ``int`` (cheap arithmetic) and
    everything else as ``Fraction``.  Floats are read through their decimal
    repr so 0.1 becomes 1/10, not the binary expansion.  Strings accept the
    ``"p/q"`` form.
    """
    if isinstance(x, bool):
        raise TypeError("bool is not a number here")
    if not is_exact():
        if isinstance(x, str):
            return float(Fraction(x))
        return float(x)
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        f = x
    elif isinstance(x, float):
        f = Fraction(repr(x))
    elif isinstance(x, str):
        f = Fraction(x)
    else:
        f = Fraction(x)
    return int(f) if f.denominator == 1 else f


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
