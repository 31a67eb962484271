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

``coerce`` is the one place where an outside value becomes a number.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction

from .errors import InputError

EXACT = "exact"
FLOAT = "float"

FLOAT_TOL = 1e-9

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


def coerce(x):
    """Bring a finite numeric input into the current mode.

    Exact mode keeps integral values as ``int`` (cheap arithmetic) and
    everything else as ``Fraction``.  Floats are read through their decimal
    repr so 0.1 becomes 1/10, not the binary expansion.  Strings accept the
    ``"p/q"`` form.  Bools, ``None``, malformed strings, zero denominators,
    nan, infinite floats and values that overflow a float raise
    ``InputError`` in both modes.
    """
    if isinstance(x, float) and not math.isfinite(x):
        raise InputError(f"non-finite number {x!r}; use the string tokens")
    if isinstance(x, bool):
        raise InputError(f"malformed number {x!r}")
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
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"malformed number {x!r}") from exc
    if exact:
        return int(v) if v.denominator == 1 else v
    if not math.isfinite(v):  # a non-float input such as Decimal("nan")
        raise InputError(f"non-finite number {x!r}")
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
