"""Exact building blocks for finite transport problems with [0, oo]-valued costs.

Conventions fixed here and relied on everywhere else:

* Costs live in [0, oo].  Infinity is the symbolic singleton ``INF``; it is a
  tag, not a number, and it never takes part in arithmetic.  Solvers simply
  omit infinite cells from their networks, so feasibility questions stay
  exact instead of drowning in big-M noise.
* ``0 * oo = 0``: integration against a coupling only sees cells that carry
  positive mass, so a zero-mass cell contributes nothing whatever its cost.
  Couplings therefore never store zero entries.
* Dual potentials live in [-oo, oo); the symbolic ``NEG_INF`` plays the same
  tag role on that side, with ``(-oo) * 0 = 0`` in objectives.
* Marginals are plain nonnegative weight vectors.  Sub-probability vectors
  are first-class citizens (partial transport needs them); "is a probability"
  is a predicate, not a type.
* Everything is immutable after construction and safe to share across
  threads read-only.
* ``make_cost_matrix`` and ``make_marginal`` read each distinct string token
  once per call: the same text gives the same value, so a matrix of a few
  distinct tokens costs a few reads.  Non-string entries are read one by
  one, and nothing is remembered between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Tuple

from . import modes
from .errors import (
    DimensionMismatchError,
    InputError,
    NegativeWeightError,
)


class _Infinity:
    """Symbolic +oo.  Compares above every number, equals only itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(float("inf"))

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True


class _NegInfinity:
    """Symbolic -oo for dual potentials.  Compares below every number."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "-inf"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(float("-inf"))

    def __lt__(self, other) -> bool:
        return other is not self

    def __le__(self, other) -> bool:
        return True

    def __gt__(self, other) -> bool:
        return False

    def __ge__(self, other) -> bool:
        return other is self


INF = _Infinity()
NEG_INF = _NegInfinity()


def is_inf(x) -> bool:
    return x is INF


def is_neg_inf(x) -> bool:
    return x is NEG_INF


def ext_min(a, b):
    """Cellwise minimum under the extended order (min(v, oo) = v)."""
    if a is INF:
        return b
    if b is INF:
        return a
    return a if a <= b else b


# ---------------------------------------------------------------------------
# spaces and marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSpace:
    """A finite set of atoms."""

    size: int

    def __post_init__(self):
        size = self.size
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise InputError("space size must be a positive integer")


@dataclass(frozen=True)
class Marginal:
    """Nonnegative weights over a space; probability iff the mass is 1."""

    space: DiscreteSpace
    weights: Tuple
    mass: object = field(compare=False)

    def is_probability(self) -> bool:
        return modes.eq(self.mass, 1)


def _read_once(read):
    """``read`` with a memo of the string tokens it has read.

    The constructors make one per call, so a memo lives for one call in the
    caller's mode and nothing is shared.  Only ``str`` entries are keys:
    ``1 == 1.0 == True`` and ``0.0 == -0.0`` hash alike but read
    differently.  A bad token raises on its first occurrence.
    """
    memo = {}

    def once(v):
        if type(v) is not str:
            return read(v)
        x = memo.get(v)
        if x is None:
            x = memo[v] = read(v)
        return x

    return once


def make_marginal(space: DiscreteSpace, weights: Sequence) -> Marginal:
    """Validate and build a marginal; the mass is cached exactly."""
    if len(weights) != space.size:
        raise DimensionMismatchError(
            f"{len(weights)} weights for a space of size {space.size}"
        )
    ws = tuple(map(_read_once(modes.coerce), weights))
    for i, w in enumerate(ws):
        if w < 0:
            raise NegativeWeightError(f"weight {w} at atom {i} is negative")
    return Marginal(space=space, weights=ws, mass=sum(ws, 0))


def uniform_marginal(n: int) -> Marginal:
    return make_marginal(DiscreteSpace(n), (modes.div(1, n),) * n)


def scale_marginal(mu: Marginal, factors: Sequence) -> Marginal:
    """Pointwise rescaling f*mu (densities f >= 0 required)."""
    if len(factors) != mu.space.size:
        raise DimensionMismatchError("density length does not match the space")
    fs = tuple(modes.coerce(f) for f in factors)
    for i, f in enumerate(fs):
        if f < 0:
            raise NegativeWeightError(f"density {f} at atom {i} is negative")
    return make_marginal(mu.space, tuple(f * w for f, w in zip(fs, mu.weights)))


# ---------------------------------------------------------------------------
# cost matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostMatrix:
    """An nX x nY grid of values in [0, oo]; ``INF`` marks forbidden cells."""

    rows: Tuple[Tuple, ...]

    @property
    def nx(self) -> int:
        return len(self.rows)

    @property
    def ny(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: Tuple[int, int]):
        i, j = ij
        return self.rows[i][j]

    def cells(self) -> Iterator[Tuple[int, int, object]]:
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                yield i, j, v

    def finite_cells(self) -> Iterator[Tuple[int, int, object]]:
        for i, j, v in self.cells():
            if v is not INF:
                yield i, j, v

    def max_finite(self):
        """Largest finite entry, or 0 when every cell is infinite."""
        best = 0
        for _, _, v in self.finite_cells():
            if v > best:
                best = v
        return best


def _coerce_cost(v):
    """A cost in [0, oo]: ``INF`` or the "inf" token (any case), else a
    number read by ``modes.coerce``."""
    if v is INF or (isinstance(v, str) and v.strip().lower() == "inf"):
        return INF
    x = modes.coerce(v)
    if x < 0:
        raise NegativeWeightError(f"cost {x} is negative")
    return x


def make_cost_matrix(rows: Sequence[Sequence]) -> CostMatrix:
    if not rows:
        raise InputError("cost matrix needs at least one row")
    width = len(rows[0])
    if width == 0:
        raise InputError("cost matrix needs at least one column")
    read = _read_once(_coerce_cost)
    out = []
    for row in rows:
        if len(row) != width:
            raise DimensionMismatchError("ragged cost matrix")
        out.append(tuple(map(read, row)))
    return CostMatrix(rows=tuple(out))


def constant_matrix(nx: int, ny: int, value) -> CostMatrix:
    v = _coerce_cost(value)
    return CostMatrix(rows=tuple((v,) * ny for _ in range(nx)))


def truncate_cost(c: CostMatrix, h: CostMatrix) -> CostMatrix:
    """Cellwise minimum c /\\ h under the extended order."""
    if (c.nx, c.ny) != (h.nx, h.ny):
        raise DimensionMismatchError("cost matrices have different shapes")
    return CostMatrix(
        rows=tuple(
            tuple(ext_min(a, b) for a, b in zip(crow, hrow))
            for crow, hrow in zip(c.rows, h.rows)
        )
    )


def truncate_at(c: CostMatrix, level) -> CostMatrix:
    """Convenience constant truncation c /\\ M for a level M >= 0."""
    try:
        h = constant_matrix(c.nx, c.ny, level)
    except NegativeWeightError:
        raise NegativeWeightError(f"truncation level {level} is negative") from None
    return truncate_cost(c, h)


# ---------------------------------------------------------------------------
# couplings
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Coupling:
    """Sparse nonnegative plan on X x Y; only positive entries are stored.

    ``row_sums``/``col_sums``/``mass`` are cached at construction and are
    exact in exact mode.  A coupling is "full" for (mu, nu) when its cached
    marginals equal them, "partial" when they are dominated componentwise.
    """

    space_x: DiscreteSpace
    space_y: DiscreteSpace
    entries: Mapping[Tuple[int, int], object]
    row_sums: Marginal
    col_sums: Marginal
    mass: object

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coupling):
            return NotImplemented
        return (
            self.space_x == other.space_x
            and self.space_y == other.space_y
            and dict(self.entries) == dict(other.entries)
        )

    def items(self):
        """Entries in row-major order (deterministic)."""
        return sorted(self.entries.items())


def _common_denominator(values) -> int:
    """The lcm of the denominators of exact numbers (1 for none)."""
    try:
        return math.lcm(*{v.denominator for v in values})
    except AttributeError:
        raise InputError(
            "a float reached the exact engine; objects built under one "
            "arithmetic mode cannot be solved under the other"
        ) from None


def _scaled(x, scale: int) -> int:
    """x * scale as an int; scale is a multiple of x's denominator."""
    return x.numerator * (scale // x.denominator)


def _unscaled(x, scale: int):
    """x / scale: x itself when scale is 1, else an int when scale divides x,
    else a Fraction."""
    if scale == 1:
        return x
    q, r = divmod(x, scale)
    return Fraction(x, scale) if r else q


def make_coupling(
    space_x: DiscreteSpace, space_y: DiscreteSpace, entries: Mapping
) -> Coupling:
    """Validate and build a coupling.  In exact mode the row, column and
    total sums run on ints over the entries' common denominator and are
    divided by it once; float mode sums the floats in entry order."""
    clean = {}
    for (i, j), m in entries.items():
        if not (0 <= i < space_x.size and 0 <= j < space_y.size):
            raise DimensionMismatchError(f"cell ({i}, {j}) outside the grid")
        v = modes.coerce(m)
        if v < 0:
            raise NegativeWeightError(f"coupling mass {v} at ({i}, {j})")
        if v == 0:
            continue
        clean[(i, j)] = v
    values = clean.values()
    scale = 1
    if modes.is_exact():
        scale = _common_denominator(values)
        values = [_scaled(v, scale) for v in values]
    rows = [0] * space_x.size
    cols = [0] * space_y.size
    total = 0
    for (i, j), v in zip(clean, values):
        rows[i] += v
        cols[j] += v
        total += v
    return Coupling(
        space_x=space_x,
        space_y=space_y,
        entries=clean,
        row_sums=make_marginal(space_x, [_unscaled(r, scale) for r in rows]),
        col_sums=make_marginal(space_y, [_unscaled(c, scale) for c in cols]),
        mass=_unscaled(total, scale),
    )


def empty_coupling(space_x: DiscreteSpace, space_y: DiscreteSpace) -> Coupling:
    return make_coupling(space_x, space_y, {})


def coupling_marginals(pi: Coupling) -> Tuple[Marginal, Marginal]:
    """The cached projections (row sums, column sums)."""
    return pi.row_sums, pi.col_sums


def cost_of(c: CostMatrix, pi: Coupling):
    """Total cost <c, pi> in [0, oo].

    Only positive entries are summed, so zero-mass cells never contribute
    (the 0 * oo = 0 convention).  The result is ``INF`` exactly when some
    positive entry sits on an infinite cell.
    """
    if (c.nx, c.ny) != (pi.space_x.size, pi.space_y.size):
        raise DimensionMismatchError("cost matrix and coupling shapes differ")
    total = 0
    for (i, j), m in pi.entries.items():
        v = c.rows[i][j]
        if v is INF:
            return INF
        total += v * m
    return total


def product_coupling(alpha: Marginal, beta: Marginal, scale=1) -> Coupling:
    """The plan scale * alpha (x) beta; mass is scale*|alpha|*|beta|."""
    s = modes.coerce(scale)
    if s < 0:
        raise NegativeWeightError(f"scale {s} is negative")
    entries = {}
    if s > 0:
        for i, a in enumerate(alpha.weights):
            if a == 0:
                continue
            sa = s * a
            for j, b in enumerate(beta.weights):
                if b == 0:
                    continue
                entries[(i, j)] = sa * b
    return make_coupling(alpha.space, beta.space, entries)


def add_couplings(p: Coupling, q: Coupling) -> Coupling:
    if p.space_x != q.space_x or p.space_y != q.space_y:
        raise DimensionMismatchError("couplings live on different grids")
    merged = dict(p.entries)
    for ij, m in q.entries.items():
        merged[ij] = merged.get(ij, 0) + m
    return make_coupling(p.space_x, p.space_y, merged)


def dominates(mu: Marginal, sub: Marginal) -> bool:
    """Componentwise sub <= mu (tolerance-aware in float mode)."""
    return all(modes.leq(s, m) for s, m in zip(sub.weights, mu.weights))


def marginals_equal(a: Marginal, b: Marginal) -> bool:
    return all(modes.eq(x, y) for x, y in zip(a.weights, b.weights))


def is_full_coupling(pi: Coupling, mu: Marginal, nu: Marginal) -> bool:
    return marginals_equal(pi.row_sums, mu) and marginals_equal(pi.col_sums, nu)


def is_partial_coupling(pi: Coupling, mu: Marginal, nu: Marginal) -> bool:
    return dominates(mu, pi.row_sums) and dominates(nu, pi.col_sums)
