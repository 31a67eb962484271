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
  threads read-only: every record (``Record``), a solver run included, is
  frozen, so a changed one is a new one.
* ``make_cost_matrix`` and ``make_marginal`` read each distinct string token
  once per call: the same text gives the same value, so a matrix of a few
  distinct tokens costs a few reads.  Non-string entries are read one by
  one, and nothing is remembered between calls.  Entries are read in
  row-major order, so the first bad entry raises first.  A cost is read
  straight to engine form (``_read_cost``): a plain ``"p/q"`` or digit
  token through ``modes._plain``, to a reduced (p, q) on ints with no
  ``Fraction`` built (a float in float mode), and every other entry through
  ``_coerce_cost``; the matrix keeps its finite cells scaled by their lcm,
  and a common denominator over the budget is refused when it is built.
  A weight's first read goes through ``modes.coerce``, which reads plain
  tokens through the same ``_plain``.  A repeat is one dict lookup.  A
  marginal's mass is summed on its weights in engine form (``_ints``), so
  an exact mass is an ``int`` when it is integral.  Signs
  are read on ints too: a weight's on its scaled value, a cost's on its
  numerator, so no check goes through ``Fraction``'s comparisons.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

from . import modes
from .errors import (
    DimensionMismatchError,
    InputError,
    MassMismatchError,
    NegativeWeightError,
    PreconditionError,
)

# the most bits that ``_scale`` lets the common denominator of one call have
MAX_SCALE_BITS = 2**17

# what ``_ints`` and ``_engine_cells`` raise on a float in exact mode
_MIXED_MODES = (
    "a float reached the exact engine; objects built under one "
    "arithmetic mode cannot be solved under the other"
)


class _Infinity:
    """Symbolic +oo (sign 1) or -oo (sign -1): above, or below, every
    number, and equal only to itself."""

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __repr__(self) -> str:
        return "inf" if self._sign > 0 else "-inf"

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash(self._sign * math.inf)

    def __lt__(self, other) -> bool:
        return self._sign < 0 and other is not self

    def __le__(self, other) -> bool:
        return self._sign < 0 or other is self

    def __gt__(self, other) -> bool:
        return self._sign > 0 and other is not self

    def __ge__(self, other) -> bool:
        return self._sign > 0 or other is self

    def __reduce__(self) -> str:
        # the global's name: pickle and copy hand back the singleton itself
        return "INF" if self._sign > 0 else "NEG_INF"


INF = _Infinity(1)
NEG_INF = _Infinity(-1)


def is_inf(x) -> bool:
    return x is INF


def is_neg_inf(x) -> bool:
    return x is NEG_INF


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


_set_attr = object.__setattr__


def _record_init(names: tuple, check: bool):
    """The constructor of a record class with the fields ``names``, and a
    ``__post_init__`` to run if ``check``: a closure over those facts, so
    that a call looks none of them up on the instance.  Two fast paths,
    every field by position or every field by keyword in order, install
    the arguments as the instance ``__dict__``; other calls go through
    ``Record._bind``."""
    n = len(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            if args or tuple(kwargs) != names:
                kwargs = self._bind(args, kwargs)
        else:
            kwargs = dict(zip(names, args))
        _set_attr(self, "__dict__", kwargs)
        if check:
            self.__post_init__()

    return __init__


class Record:
    """A plain, frozen record whose fields are its class's own annotations,
    in order.

    ``class P(Record)`` is built from every one of its fields, by position
    or keyword; it has a ``repr`` that lists the fields,
    ``__match_args__``, and ``==`` and ``hash`` over all the fields of two
    records of the same class; assigning or deleting an attribute raises
    ``AttributeError``.  A record has no options and its fields no
    defaults.  A ``__post_init__`` method, if the class has one, runs once
    the fields are set.  No code is generated: the methods here read the
    field names that ``__init_subclass__`` records, and the constructor is
    a closure over them (``_record_init``).  It installs one dict as the
    instance ``__dict__`` in a single call, not one ``object.__setattr__``
    per field; pickle and ``copy`` restore that ``__dict__`` directly, so a
    record round-trips.  A changed record is a new one:
    ``P(**{**vars(p), name: value})``.
    """

    __post_init__ = None

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = tuple(cls.__annotations__)
        cls.__match_args__ = names
        cls.__init__ = _record_init(names, cls.__post_init__ is not None)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """The fields of any other call, in order; ``TypeError`` where a
        function call would raise it."""
        names, name = cls.__match_args__, cls.__qualname__
        if len(args) > len(names):
            raise TypeError(
                f"{name}() takes {len(names)} positional arguments "
                f"but {len(args)} were given"
            )
        bound = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in bound:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            bound[key] = value
        missing = [n for n in names if n not in bound]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        return {n: bound[n] for n in names}

    def _key(self) -> tuple:
        d = self.__dict__
        return tuple([d[n] for n in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        d = self.__dict__
        fields = ", ".join(f"{n}={d[n]!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# spaces and marginals
# ---------------------------------------------------------------------------


class DiscreteSpace(Record):
    """A finite set of atoms."""

    size: int

    def __post_init__(self):
        size = self.size
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise InputError("space size must be a positive integer")


class Marginal(Record):
    """Nonnegative weights over a space; probability iff the mass is 1.

    ``mass`` is the weights' sum, so the library's constructors
    (``make_marginal``, a coupling's sums) derive it from them; like
    every field, it takes part in ``==`` and ``hash``."""

    space: DiscreteSpace
    weights: tuple
    mass: object

    def is_probability(self) -> bool:
        return modes.eq(self.mass, 1)


def _require_unit_masses(mu: Marginal, nu: Marginal) -> None:
    if not mu.is_probability() or not nu.is_probability():
        raise PreconditionError("probability marginals required")


def _require_probability(mu: Marginal, nu: Marginal) -> None:
    """Unit masses that also equal each other within the float tolerance,
    as a full coupling needs."""
    _require_unit_masses(mu, nu)
    if not modes.eq(mu.mass, nu.mass):
        raise MassMismatchError(
            f"marginal masses differ: |mu| = {mu.mass}, |nu| = {nu.mass}"
        )


def _read_once(read, memo: dict):
    """``read`` with ``memo``, the string tokens it has read and their values.

    The constructors make one memo per call, so it lives for one call in
    the caller's mode and nothing is shared.  Only ``str`` entries are
    keys: ``1 == 1.0 == True`` and ``0.0 == -0.0`` hash alike but read
    differently.  A bad token raises on its first occurrence.
    """

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
    ws = tuple(map(_read_once(modes.coerce, {}), weights))
    values, scale = _ints(ws)
    for i, v in enumerate(values):  # signs read on the scaled values
        if v < 0:
            raise NegativeWeightError(f"weight {ws[i]} at atom {i} is negative")
    return Marginal(space=space, weights=ws, mass=_unscaled(sum(values), scale))


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


class CostMatrix(Record):
    """An nX x nY grid of values in [0, oo]; ``INF`` marks forbidden cells.

    The matrix holds its finite cells in the flow engine's form: ``scaled``
    lists them row-major, each once, as (i, j, cost times lc), where ``lc``
    is the lcm of the finite costs' denominators (1 in float mode, where a
    scaled cost is the float itself).  ``rows``, ``cells()``,
    ``finite_cells()``, ``c[i, j]`` and ``max_finite()`` derive the values
    from them on each read, in the form ``modes.coerce`` gives a number, and
    divide each distinct scaled cost once; a reader that walks the grid
    binds ``rows`` once per call."""

    nx: int
    ny: int
    scaled: tuple
    lc: int

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The grid, built on each read."""
        grid = [[INF] * self.ny for _ in range(self.nx)]
        for i, j, v in self.finite_cells():
            grid[i][j] = v
        return tuple(map(tuple, grid))

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        i, j = range(self.nx)[i], range(self.ny)[j]  # IndexError as a list raises it
        cells = self.scaled
        k = bisect_left(cells, (i, j))
        if k < len(cells) and cells[k][:2] == (i, j):
            return _unscaled(cells[k][2], self.lc)
        return INF

    def cells(self) -> Iterator[tuple[int, int, object]]:
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                yield i, j, v

    def finite_cells(self) -> Iterator[tuple[int, int, object]]:
        """The finite cells (i, j, cost), row-major."""
        lc = self.lc
        if lc == 1:  # the scaled costs are the costs (a float keeps its sign)
            return iter(self.scaled)
        values = {x: _unscaled(x, lc) for x in {x for _, _, x in self.scaled}}
        return iter([(i, j, values[x]) for i, j, x in self.scaled])

    def max_finite(self):
        """Largest finite entry, or 0 when every cell is infinite."""
        best = 0
        for _, _, x in self.scaled:
            if x > best:
                best = x
        return _unscaled(best, self.lc)


def _coerce_cost(v):
    """A cost in [0, oo]: ``INF`` or the "inf" token (any case), else a
    number read by ``modes.coerce``."""
    if v is INF or (isinstance(v, str) and v.strip().lower() == "inf"):
        return INF
    x = modes.coerce(v)
    if (x.numerator if type(x) is Fraction else x) < 0:  # no Fraction.__lt__
        raise NegativeWeightError(f"cost {x} is negative")
    return x


def _read_cost(v):
    """One entry of a cost matrix as ``make_cost_matrix`` keeps it until it
    is scaled: ``INF``, else in exact mode the value's reduced (p, q) and in
    float mode its float.  A plain token is read by ``modes._plain``, which
    gives that form, and is never negative; every other entry goes through
    ``_coerce_cost``."""
    if type(v) is str and (x := modes._plain(v)) is not None:
        return x
    x = _coerce_cost(v)
    return x if x is INF or type(x) is float else (x.numerator, x.denominator)


def make_cost_matrix(rows: Sequence[Sequence]) -> CostMatrix:
    """The matrix of ``rows``, its finite cells scaled by the lcm of their
    denominators (``CostMatrix``).  ``InputError`` when that lcm has more
    than ``MAX_SCALE_BITS`` bits, as ``_ints`` gives it."""
    if not rows:
        raise InputError("cost matrix needs at least one row")
    width = len(rows[0])
    if width == 0:
        raise InputError("cost matrix needs at least one column")
    denominators = set()  # none in float mode

    def read_cost(v):  # and note its denominator, once per distinct token
        x = _read_cost(v)
        if type(x) is tuple:
            denominators.add(x[1])
        return x

    read = _read_once(read_cost, {})
    out = []
    for row in rows:
        if len(row) != width:
            raise DimensionMismatchError("ragged cost matrix")
        out.append(list(map(read, row)))
    lc = _scale(denominators)
    if denominators:  # exact mode: each (p, q) scaled to an int
        cells = [
            (i, j, x[0] * (lc // x[1]))
            for i, row in enumerate(out)
            for j, x in enumerate(row)
            if x is not INF
        ]
    else:
        cells = [(i, j, x) for i, row in enumerate(out) for j, x in enumerate(row) if x is not INF]
    return CostMatrix(len(out), width, tuple(cells), lc)


def _matrix(nx: int, ny: int, cells: list) -> CostMatrix:
    """The matrix whose finite cells (i, j, value), row-major, are
    ``cells``, their values already read."""
    scaled, lc = _ints([v for _, _, v in cells])
    return CostMatrix(nx, ny, tuple([(i, j, x) for (i, j, _), x in zip(cells, scaled)]), lc)


def constant_matrix(nx: int, ny: int, value) -> CostMatrix:
    v = _coerce_cost(value)
    return _matrix(nx, ny, [] if v is INF else [(i, j, v) for i in range(nx) for j in range(ny)])


def truncate_cost(c: CostMatrix, h: CostMatrix) -> CostMatrix:
    """Cellwise minimum c /\\ h under the extended order: builtin ``min``,
    since ``INF`` sorts above every number (and a tie keeps c's entry)."""
    if (c.nx, c.ny) != (h.nx, h.ny):
        raise DimensionMismatchError("cost matrices have different shapes")
    cells = zip(c.cells(), h.cells())
    return _matrix(
        c.nx, c.ny, [(i, j, v) for (i, j, a), (_, _, b) in cells if (v := min(a, b)) is not INF]
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


class Coupling(Record):
    """Sparse nonnegative plan on X x Y; only positive entries are stored.

    A coupling is its entries: ``row_sums``, ``col_sums`` and ``mass`` are
    derived from them each time they are read, one pass each, in entry
    order and in the entries' own arithmetic, so they are exact in exact
    mode.  An exact sum is an ``int`` when it is integral, else a
    ``Fraction``; a float sum starts from 0.0.  Only a coupling with no
    entries reads the mode, for its zero.  A coupling is "full" for
    (mu, nu) when its marginals equal them, "partial" when they are
    dominated componentwise.
    """

    space_x: DiscreteSpace
    space_y: DiscreteSpace
    entries: Mapping[tuple[int, int], object]

    def items(self):
        """Entries in row-major order (deterministic)."""
        return sorted(self.entries.items())

    @property
    def row_sums(self) -> Marginal:
        return self._marginal(self.space_x, 0)

    @property
    def col_sums(self) -> Marginal:
        return self._marginal(self.space_y, 1)

    @property
    def mass(self):
        return _reduced(sum(self.entries.values(), self._zero()))

    def _zero(self):
        """0.0 for float entries, else 0; with no entries, the zero of the
        mode the sums are read in, so an empty float row sums to 0.0 as a
        read weight."""
        for m in self.entries.values():
            return 0.0 if type(m) is float else 0
        return modes.coerce(0)

    def _marginal(self, space: DiscreteSpace, axis: int) -> Marginal:
        """The sums along ``axis``; the mass is the sum of the sums."""
        sums = [self._zero()] * space.size
        for ij, m in self.entries.items():
            sums[ij[axis]] += m
        weights = tuple(map(_reduced, sums))
        return Marginal(space=space, weights=weights, mass=_reduced(sum(weights)))


def _reduced(x):
    """An exact sum as ``modes.coerce`` gives a number: an int when it is
    integral.  Other values pass through."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _ints(values: list, scale: int = 1) -> tuple[list, int]:
    """The numbers ``values`` in the form the flow engine runs on, with
    their scale.  In exact mode: each value times the lcm of ``scale`` and
    their denominators, as an int, and that lcm (``scale`` for none).  In
    float mode: the list itself and ``scale``, which is 1 there.  This and
    ``_engine_cells`` are the only places outside ``modes`` that read the
    mode.  ``_unscaled`` undoes it (a float-mode scale is 1, so a value
    stays as it is), and ``modes.div`` where an engine int must come back
    as a float in float mode."""
    if not modes.is_exact():
        return values, scale
    try:
        denominators = {v.denominator for v in values}
    except AttributeError:
        raise InputError(_MIXED_MODES) from None
    scale = _scale(denominators, scale)
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _engine_cells(c) -> tuple:
    """The finite cells (i, j, cost times lc) that the cost ``c`` holds, a
    ``CostMatrix`` or a ``kellerer.CellSet``, and lc; ``InputError`` for a
    matrix built under float mode that reaches the exact engine."""
    cells = c.scaled
    if cells and type(cells[0][2]) is float and modes.is_exact():
        raise InputError(_MIXED_MODES)
    return cells, c.lc


def _scale(denominators, scale: int = 1) -> int:
    """The lcm of ``scale`` and ``denominators``, built one denominator at a
    time.  ``InputError`` is raised as soon as it has more than
    ``MAX_SCALE_BITS`` bits: every scaled number holds the scale, so each
    step of a run on it would cost time and memory that grow with its
    length."""
    for q in denominators:
        scale = math.lcm(scale, q)
        if scale.bit_length() > MAX_SCALE_BITS:
            raise InputError(
                "the numbers' common denominator has more than "
                f"{MAX_SCALE_BITS} bits, the exact engine's budget"
            )
    return scale


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
    """Validate and build a coupling of the positive entries; its sums are
    derived from them when they are read."""
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
    return Coupling(space_x, space_y, clean)


def empty_coupling(space_x: DiscreteSpace, space_y: DiscreteSpace) -> Coupling:
    return make_coupling(space_x, space_y, {})


def coupling_marginals(pi: Coupling) -> tuple[Marginal, Marginal]:
    """The projections (row sums, column sums), summed when read."""
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
    rows = c.rows
    for (i, j), m in pi.entries.items():
        v = rows[i][j]
        if v is INF:
            return INF
        total += v * m
    return total


def product_coupling(alpha: Marginal, beta: Marginal, scale=1) -> Coupling:
    """The plan scale * alpha (x) beta; mass is scale*|alpha|*|beta|.  Each
    entry is formed on the scale and the weights in engine form
    (``_ints``): in exact mode as an int product over one common
    denominator, the scale's times the two marginals' lcms, and each
    distinct product is divided by it once.  Marginals of few distinct
    weights give few distinct products, so most entries share an unscaled
    value.  Its sums are derived from the entries when they are read."""
    s = modes.coerce(scale)
    (s_w,), ds = _ints([s])
    if s_w < 0:
        raise NegativeWeightError(f"scale {s} is negative")
    a_w, da = _ints(alpha.weights)
    b_w, db = _ints(beta.weights)
    a_w = [s_w * a for a in a_w]
    if max(a_w) * max(b_w) == math.inf:  # only floats overflow
        raise InputError(f"the product coupling at scale {s} overflows a float")
    denom = ds * da * db
    values = {}
    for i, sa in enumerate(a_w):
        if sa == 0:
            continue
        for j, b in enumerate(b_w):
            v = sa * b
            if v:  # a float product may underflow to 0
                values[(i, j)] = v
    unscaled = {v: _unscaled(v, denom) for v in set(values.values())}
    entries = {ij: unscaled[v] for ij, v in values.items()}
    return Coupling(alpha.space, beta.space, entries)


def add_couplings(p: Coupling, q: Coupling) -> Coupling:
    if p.space_x != q.space_x or p.space_y != q.space_y:
        raise DimensionMismatchError("couplings live on different grids")
    merged = dict(p.entries)
    for ij, m in q.entries.items():
        merged[ij] = merged.get(ij, 0) + m
    return make_coupling(p.space_x, p.space_y, merged)


def _require_same_size(a: Marginal, b: Marginal) -> None:
    if a.space.size != b.space.size:
        raise DimensionMismatchError("marginals live on spaces of different sizes")


def dominates(mu: Marginal, sub: Marginal) -> bool:
    """Componentwise sub <= mu (tolerance-aware in float mode)."""
    _require_same_size(mu, sub)
    return all(modes.leq(s, m) for s, m in zip(sub.weights, mu.weights))


def marginals_equal(a: Marginal, b: Marginal) -> bool:
    _require_same_size(a, b)
    return all(modes.eq(x, y) for x, y in zip(a.weights, b.weights))


def is_full_coupling(pi: Coupling, mu: Marginal, nu: Marginal) -> bool:
    return marginals_equal(pi.row_sums, mu) and marginals_equal(pi.col_sums, nu)


def is_partial_coupling(pi: Coupling, mu: Marginal, nu: Marginal) -> bool:
    return dominates(mu, pi.row_sums) and dominates(nu, pi.col_sums)
