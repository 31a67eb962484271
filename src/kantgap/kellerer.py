"""Cover and capacity functionals on cell sets, with their flow duals.

For a cell set L inside the grid X x Y:

* the cover value m(L) is the least mu(A) + nu(B) over band covers
  L subset (A x Y) u (X x B);
* the matching mass is the largest total mass of a partial coupling
  supported inside L;
* on a single space with one shared weighting, the capacity gamma(L) is
  the least integral of f: X -> [0, 1] with f(x) + f(y) >= 1 on L.

A cell set holds its cells, row-major, and is its own cost: 0 on its
cells and forbidden elsewhere, so the flow engine runs on it as it runs on
a ``CostMatrix`` and no n x n grid is built.  Cover and matching mass agree
exactly on every instance (max-flow min-cut), so both are read from one run
of the flow engine on L: the shipped mass is the value, the residual cut is
the cover, and the same run settles the zero-mass questions below.  Each
such answer has a ``*_from_run`` form that takes that run and L, since the
run carries the marginals it was given (the null question is whether it
shipped any mass, as in the decomposition); the public functions run the
engine once and read from it.  The capacity is half the cover value of the
symmetrised set (Nemhauser-Trotter half-integrality), and it sandwiches the
cover within a factor of 4: gamma <= m <= 4 gamma, via the threshold set
{f >= 1/2} on one side and indicator functions on the other.

The zero level of all of these is the Kellerer-type dichotomy: either L is
covered by weightless bands (so every coupling ignores it), or some full
coupling charges it; ``kellerer_decompose`` returns whichever object exists.
The charging coupling is the run's own plan, completed to a full coupling
along the north-west corner, so it puts the matching mass m on L: the most
any coupling can (Kellerer's duality), which the cover bounds from above.

The readers work on the numbers the run carries in engine form (``flow``
module docstring): the cover's weight is one sum of the run's scaled
weights, divided once by its ``lw``, and the weightless rows and columns
are read off the same scaled weights.  The witness is completed, checked
and summed on the run's scaled flows and weights, and each entry is
divided once by ``lw``.  The capacity builds L u L^T from L's cells and
reads each f_i from the three values 0, 1/2 and 1.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from . import modes
from .core import Coupling, Marginal, Record, _require_unit_masses
from .errors import (
    DimensionMismatchError,
    InputError,
    MassMismatchError,
    NotSquareError,
    PostconditionError,
)
from .flow import SolverRun, _require_cut, _run_ssp


class CellSet(Record):
    """A subset L of the grid nx x ny: its cells, row-major, each once.

    A cell set is also a cost: 0 on its cells and forbidden elsewhere, so
    the flow engine takes it where it takes a ``CostMatrix``, and plans
    under it live inside L.  The engine reads it only through ``nx``,
    ``ny``, ``scaled`` and ``lc``."""

    nx: int
    ny: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def rows(self) -> tuple[tuple[bool, ...], ...]:
        """The boolean membership grid, built on each read."""
        grid = [[False] * self.ny for _ in range(self.nx)]
        for i, j in self.pairs:
            grid[i][j] = True
        return tuple(map(tuple, grid))

    # the scale of ``scaled``: a cell set's costs are integral
    lc = 1

    @property
    def scaled(self) -> tuple[tuple[int, int, object], ...]:
        """The cells in engine form, as ``CostMatrix.scaled`` holds a
        matrix's: each at its cost 0 (0.0 in float mode), with scale 1."""
        zero = modes.coerce(0)
        return tuple([(i, j, zero) for i, j in self.pairs])

    def cells(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __contains__(self, ij: tuple[int, int]) -> bool:
        return tuple(ij) in self.pairs


def cellset_from_pairs(nx: int, ny: int, pairs: Sequence[tuple[int, int]]) -> CellSet:
    if not isinstance(pairs, (list, tuple)):
        raise InputError("cell-set pairs must be a list of [i, j] pairs")
    seen = set()
    for cell in pairs:
        if not (isinstance(cell, (list, tuple)) and len(cell) == 2
                and type(cell[0]) is int and type(cell[1]) is int):
            raise InputError(f"cell {modes._shown(cell)} is not a pair of integer indices")
        i, j = cell
        if not (0 <= i < nx and 0 <= j < ny):
            raise InputError(f"cell ({i}, {j}) outside a {nx}x{ny} grid")
        seen.add((i, j))
    return CellSet(nx=nx, ny=ny, pairs=tuple(sorted(seen)))


def cellset_from_matrix(rows: Sequence[Sequence]) -> CellSet:
    if not (isinstance(rows, (list, tuple)) and rows and isinstance(rows[0], (list, tuple))
            and rows[0]):
        raise InputError("cell-set matrix needs at least one row and column")
    width = len(rows[0])
    pairs = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != width:
            raise DimensionMismatchError("ragged cell-set matrix")
        if not all(isinstance(v, int) and v in (0, 1) for v in row):
            raise InputError(
                f"cell-set matrix entries must be 0, 1 or booleans: {modes._shown(row)}"
            )
        pairs.extend((i, j) for j, v in enumerate(row) if v)
    return CellSet(nx=len(rows), ny=width, pairs=tuple(pairs))


class CoverCertificate(Record):
    rows: frozenset[int]
    cols: frozenset[int]
    value: object


def matching_run(L: CellSet, mu: Marginal, nu: Marginal) -> SolverRun:
    """One engine run on L as a cost: the run that the cover,
    the matching mass and the zero-mass dichotomy of L all read.  They need
    only its shipped mass and min cut, so it asks for a warm start, which
    the engine takes whenever the masses are equal, in either mode (``flow``
    module docstring).  Its plan may differ from a cold run's, and in float
    mode its shipped mass may differ in the last bits, since a warm plan
    adds its mass up in another order."""
    return _run_ssp(L, mu, nu, warm=True)


def max_mass_on(L: CellSet, mu: Marginal, nu: Marginal) -> tuple[object, Coupling]:
    """Largest mass of a partial coupling supported inside L, with witness."""
    run = matching_run(L, mu, nu)
    return run.shipped, run.plan()


def cover_value(L: CellSet, mu: Marginal, nu: Marginal) -> tuple[object, CoverCertificate]:
    """Exact minimum of mu(A) + nu(B) over band covers of L.

    By max-flow min-cut (Koenig's theorem on the bipartite graph L), the
    least cover weight is the largest mass a partial coupling can put inside
    L.  The residual cut of that matching flow is a cover of the same
    weight: rows the source can no longer reach, plus columns it can.
    """
    return cover_from_run(matching_run(L, mu, nu), L)


def cover_from_run(run: SolverRun, L: CellSet) -> tuple[object, CoverCertificate]:
    """``cover_value`` read from ``matching_run(L, mu, nu)``, or from any
    untargeted run on L as a cost: a targeted run has no min cut.
    The certificate's value is summed on the run's scaled weights and
    divided once, so in exact mode it is an int when it is integral."""
    _require_cut(run)
    rows = frozenset(i for i in range(L.nx) if i not in run.reachable_rows)
    cols = frozenset(run.reachable_cols)
    w, nx = run.weights, run.nx
    value = modes.div(sum(w[i] for i in rows) + sum(w[nx + j] for j in cols), run.lw)
    if not all(i in rows or j in cols for i, j in L.pairs):
        raise PostconditionError("cover certificate does not cover the cell set")
    if not modes.eq(value, run.shipped):
        raise PostconditionError("cover weight does not match the matching mass")
    return run.shipped, CoverCertificate(rows=rows, cols=cols, value=value)


def capacity_value(L: CellSet, lam: Marginal) -> tuple[object, tuple]:
    """Least integral of f: X -> [0, 1] with f(x) + f(y) >= 1 on L, for a
    square cell set over one space with one shared weighting.

    Unlike the two-sided cover program this one lives on a single function,
    so genuinely fractional optima occur.  By Nemhauser-Trotter
    half-integrality, gamma(L) is half the cover value of L u L^T under
    (lam, lam), and a cover (A, B) of it gives the optimal f = (1_A + 1_B)/2,
    with values in {0, 1/2, 1}."""
    if L.nx != L.ny:
        raise NotSquareError("capacity needs a square cell set")
    if lam.space.size != L.nx:
        raise NotSquareError("capacity needs one shared marginal on the square")
    pairs = {*L.pairs, *((j, i) for i, j in L.pairs)}
    sym = CellSet(nx=L.nx, ny=L.ny, pairs=tuple(sorted(pairs)))
    value, cert = cover_value(sym, lam, lam)
    halves = [modes.div(k, 2) for k in range(3)]
    f = tuple(halves[(i in cert.rows) + (i in cert.cols)] for i in range(L.nx))
    return modes.div(value, 2), f


def null_for_all_couplings(L: CellSet, mu: Marginal, nu: Marginal) -> bool:
    """True when every full coupling of (mu, nu) gives L mass zero.

    L is null for all couplings exactly when its matching mass is 0: a
    partial coupling that charges L puts mass on a cell whose row and column
    both carry weight, and the product coupling mu x nu, a full coupling,
    charges every such cell."""
    _require_unit_masses(mu, nu)
    return not modes.is_positive(matching_run(L, mu, nu).shipped)


class Decomposition(Record):
    """Either weightless bands covering L, or a full coupling charging it
    with the matching mass m, the most any coupling puts on L."""

    null_rows: frozenset[int] | None
    null_cols: frozenset[int] | None
    witness: Coupling | None

    @property
    def is_null(self) -> bool:
        return self.witness is None


def kellerer_decompose(L: CellSet, mu: Marginal, nu: Marginal) -> Decomposition:
    """The zero-mass dichotomy for L.

    If no partial coupling can charge L, every L-cell must sit on a
    weightless row or column; the weightless rows meeting L, plus the
    weightless columns meeting L elsewhere, form the null cover.  Otherwise
    the matching plan, completed to a full coupling (``decompose_from_run``),
    charges L with the matching mass."""
    return decompose_from_run(matching_run(L, mu, nu), L)


def decompose_from_run(run: SolverRun, L: CellSet) -> Decomposition:
    """``kellerer_decompose`` read from ``matching_run(L, mu, nu)``.

    The witness is the run's plan completed to a full coupling: what each
    row and column has left of its weight is shipped along the north-west
    corner (``_deficit_steps``), on the scaled numbers, and each entry is
    divided once by ``lw``.  It has at most |supp plan| + nx + ny - 1
    entries.  No step lands on L, since a row and a column that both have
    weight left and meet in L would be an augmenting path, so its mass on L
    is the matching mass m, the most any coupling puts there (module
    docstring).  A run stopped at a target is no maximum matching: a step
    may land on L there, and the witness puts between the shipped mass and
    m on L.  Its row and column sums, and on a run with a min cut its mass
    on L, are checked on the scaled numbers (``modes.eq``) before its
    entries are divided."""
    mu, nu, w, nx = run.mu, run.nu, run.weights, run.nx
    if not modes.is_positive(run.shipped):
        # weightless as the run reads it: in float mode, within the tolerance
        null_rows = frozenset(i for i, _ in L.pairs if not modes.is_positive(w[i]))
        null_cols = frozenset(
            j for i, j in L.pairs if i not in null_rows and not modes.is_positive(w[nx + j])
        )
        for i, j in L.pairs:
            if i not in null_rows and j not in null_cols:
                raise PostconditionError(
                    "zero matching mass must force a weightless band cover"
                )
        return Decomposition(null_rows=null_rows, null_cols=null_cols, witness=None)
    if not modes.eq(mu.mass, nu.mass):
        raise MassMismatchError(
            "a charging witness must be a full coupling; marginal masses differ"
        )
    scaled = dict(run.scaled_flows)
    for i, j, t in _deficit_steps(run):
        scaled[i, j] = scaled.get((i, j), 0) + t
    if not any(ij in scaled for ij in L.pairs):  # entries are positive
        raise PostconditionError("the witness failed to charge the cell set")
    sums = [0] * len(w)
    for (i, j), f in scaled.items():
        sums[i] += f
        sums[nx + j] += f
    if not all(map(modes.eq, sums, w)):
        raise PostconditionError("the witness is not a full coupling of the marginals")
    on_L = modes.div(sum(scaled.get(ij, 0) for ij in L.pairs), run.lw)
    if run.reachable_rows is not None and not modes.eq(on_L, run.shipped):
        raise PostconditionError("the witness's mass on the cell set is not the matching mass")
    entries = {ij: modes.div(f, run.lw) for ij, f in scaled.items()}
    return Decomposition(
        null_rows=None, null_cols=None, witness=Coupling(mu.space, nu.space, entries)
    )


def _deficit_steps(run: SolverRun) -> list[tuple[int, int, object]]:
    """The north-west corner steps (i, j, amount), in engine form, that
    ship what each row and column of ``run`` has left of its weight after
    its scaled flows.  Rows and columns are taken in index order; a step
    ships the lesser of the two amounts left and moves past the row or
    column it empties.  An amount within the engine's tolerance counts as
    empty (0 in exact mode), so every step is positive.  On marginals of
    equal mass the steps empty every row and column, in at most
    nx + ny - 1 steps."""
    nx, ny, tol = run.nx, run.ny, modes.tolerance()
    rows, cols = run.weights[:nx], run.weights[nx:]
    for (i, j), f in run.scaled_flows.items():
        rows[i] -= f
        cols[j] -= f
    steps = []
    i = j = 0
    while i < nx and j < ny:
        if not rows[i] > tol:
            i += 1
        elif not cols[j] > tol:
            j += 1
        else:
            t = min(rows[i], cols[j])
            steps.append((i, j, t))
            rows[i] -= t
            cols[j] -= t
    return steps
