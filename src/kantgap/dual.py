"""Dual-side values and certificates.

A feasible pair is (phi over X, psi over Y), both valued in [-oo, oo), with
phi_i + psi_j <= c(i, j) on every cell.  Infinite cells impose no constraint
and -oo makes a constraint vacuous.  Objectives use (-oo) * 0 = 0, so a -oo
potential on a weightless atom costs nothing; that is also why optimal pairs
can always be kept finite here: atoms the marginals charge receive flow
potentials, weightless atoms get 0, lowered just enough to stay feasible.

The dual optimum is read off the flow potentials at full mass.  When full
transport is infeasible through the finite cells, the dual is unbounded; the
residual min cut then yields an improving ray (phi up on reachable rows, psi
down on reachable columns) whose objective slope is exactly the infeasibility
deficit, reported alongside the INF value.

The "relaxed" dual keeps the constraint phi_i + psi_j <= c(i, j) only on
chargeable cells, those carried by some finite-cost full coupling.  The
chargeable set is read from one optimal full plan and its residual graph:
full couplings on finite cells differ by circulations, so a cell can carry
mass exactly when the plan charges it or a residual cycle runs through it,
which is one strongly-connected-components computation (two graph
searches; Sharir, Comput. Math. Appl. 1981).

No restricted instance is solved for the relaxed dual: D = D_rel = P on a
finite instance.  Every finite-cost full coupling lives on the chargeable
cells, so a pair feasible there has objective at most its cost, and
D_rel <= P.  A plain feasible pair is feasible on the chargeable cells too,
so D <= D_rel, and D = P closes the chain; the plain optimal pair is a
relaxed optimum.

Every answer here has a ``*_from_run`` form that takes an existing
``SolverRun`` and nothing else, since the run carries the marginals it
solved and the finite cells of its cost.  So one warm-started engine run
serves the primal value, the dual pair, the witness plan and the
chargeable set of an instance; the public functions are thin wrappers that
run the engine once and read from it.

A genuinely smaller relaxed dual needs continuum structure and is out of
reach at desk scale by design.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import modes
from .core import (
    INF,
    NEG_INF,
    CostMatrix,
    Coupling,
    Marginal,
    Record,
    _from_ints,
    _reduced,
    _require_probability,
    _unscaled,
    cost_of,
    is_inf,
    is_neg_inf,
    make_cost_matrix,
    truncate_at,
    truncate_cost,
)
from .errors import (
    InputError,
    NotApplicableError,
    PostconditionError,
    PreconditionError,
)
from .flow import SolverRun, _require_cut, _run_ssp, truncation_ladder
from .primal import primal_value


class DualPair(Record):
    """Potentials (phi, psi) with the objective sum(phi mu) + sum(psi nu)
    cached under the (-oo) * 0 = 0 convention."""

    phi: tuple
    psi: tuple
    objective: object


def make_dual_pair(phi: Sequence, psi: Sequence, mu: Marginal, nu: Marginal) -> DualPair:
    phi = tuple(p if is_neg_inf(p) else modes.coerce(p) for p in phi)
    psi = tuple(p if is_neg_inf(p) else modes.coerce(p) for p in psi)
    if len(phi) != mu.space.size or len(psi) != nu.space.size:
        raise InputError("potential lengths do not match the spaces")
    obj = 0
    for p, w in tuple(zip(phi, mu.weights)) + tuple(zip(psi, nu.weights)):
        if w == 0:
            continue  # (-oo) * 0 = 0
        if is_neg_inf(p):
            return DualPair(phi=phi, psi=psi, objective=NEG_INF)
        obj += p * w
    return DualPair(phi=phi, psi=psi, objective=obj)


class FeasibilityCheck(Record):
    ok: bool
    violation: tuple[int, int] | None  # first offending cell, row-major
    excess: object | None  # phi_i + psi_j - c(i, j) there


def verify_feasible(pair: DualPair, c: CostMatrix) -> FeasibilityCheck:
    """Exhaustive feasibility check of phi_i + psi_j <= c(i, j), on the
    finite cells in engine form: each finite potential is multiplied by
    the cost's lc once, an int when its denominator divides lc, and held
    against the scaled costs, which keeps every comparison."""
    lc, tol = c.lc, modes.tolerance()
    phi = [p if p is NEG_INF else _reduced(p * lc) for p in pair.phi]
    psi = [q if q is NEG_INF else _reduced(q * lc) for q in pair.psi]
    for i, j, x in c.scaled:
        p, q = phi[i], psi[j]
        if p is NEG_INF or q is NEG_INF:
            continue
        if p + q - x > tol:
            excess = pair.phi[i] + pair.psi[j] - c[i, j]
            return FeasibilityCheck(ok=False, violation=(i, j), excess=excess)
    return FeasibilityCheck(ok=True, violation=None, excess=None)


class ImprovingRay(Record):
    """Direction (d_phi, d_psi) with d_phi_i + d_psi_j <= 0 on finite cells
    and positive objective slope: a certificate of dual unboundedness."""

    d_phi: tuple
    d_psi: tuple
    slope: object


class DualReport(Record):
    value: object  # sup of the dual objective, possibly INF
    pair: DualPair  # optimal when value is finite, else a feasible base point
    ray: ImprovingRay | None  # present exactly when value is INF


def _pair_from_run(run: SolverRun) -> DualPair:
    """The optimal pair of a run at full mass, read off its final potentials
    in engine form (``flow`` module docstring).

    Weightless atoms are lowered on the scaled costs and potentials
    (``_lower_weightless``); scaling by lc > 0 keeps every minimum and the
    sign of 0, so the lowered values are those of the unscaled numbers.
    The objective is one running sum of scaled potential times scaled
    weight over phi, then psi, skipping weightless atoms, divided once by
    lc*lw; in float mode (lc = lw = 1) it is ``make_dual_pair``'s sum in
    its order.  Each potential is divided by lc, and in float mode a
    potential no search raised, the engine's int 0, becomes 0.0, as
    ``modes.coerce`` makes it.  phi is read as 0 - pot(X_i), so a float
    potential of 0.0 gives 0.0, not -0.0.
    """
    nx, weights = run.nx, run.weights
    u, v = [0 - p for p in run.potentials[1 : 1 + nx]], run.potentials[1 + nx : -1]
    _lower_weightless(u, v, weights, run.cells)
    scaled = u + v
    total = 0
    for p, w in zip(scaled, weights):
        if w:  # (-oo) * 0 = 0
            total += p * w
    pair = _from_ints(scaled, run.lc)
    return DualPair(
        phi=tuple(pair[:nx]), psi=tuple(pair[nx:]), objective=_unscaled(total, run.lc * run.lw)
    )


def _lower_weightless(u: list, v: list, weights, cells) -> None:
    """Set the potential of each weightless atom to min(0, c - other) over
    its finite cells: rows against v, then columns against the lowered u.
    ``weights`` holds the rows' weights, then the columns', and ``cells``
    lists (i, j, c) per finite cell.  Both sides take one pass over the
    cells, since a weightless row lowers no column: its lowered potential
    is at most 0 and every cost at least 0, so its slack is at least 0.  A
    slack of 0 (of either sign in float mode) keeps the int 0, as ``min``
    with 0 first would.

    Mirrors modifying potentials on null sets: objectives cannot change, but
    the pair must stay feasible on every cell, not only charged ones."""
    nx = len(u)
    rows = {i: 0 for i, w in enumerate(weights[:nx]) if w == 0}
    cols = {j: 0 for j, w in enumerate(weights[nx:]) if w == 0}
    if not (rows or cols):
        return
    for i, j, x in cells:
        if i in rows:
            if x - v[j] < rows[i]:
                rows[i] = x - v[j]
        elif j in cols and x - u[i] < cols[j]:
            cols[j] = x - u[i]
    for i, x in rows.items():
        u[i] = x
    for j, x in cols.items():
        v[j] = x


def dual_value(c: CostMatrix, mu: Marginal, nu: Marginal) -> DualReport:
    """The dual optimum with a certificate.

    Finite case: potentials from the flow at full mass, post-processed so
    feasibility holds on all cells; the objective equals the primal value
    (no gap on finite instances).  Infeasible case: value INF plus an
    improving ray from the residual cut.
    """
    _require_probability(mu, nu)
    return dual_from_run(_run_ssp(c, mu, nu, warm=True))


def dual_from_run(run: SolverRun) -> DualReport:
    """``dual_value`` read from an untargeted run, cold or warm: both end
    with the same shipped mass and reachable sets, and at full mass with
    potentials that certify the plan.  Short of full mass the answer is the
    cut's ray, so a targeted run raises ``PreconditionError`` there."""
    if modes.eq(run.shipped, 1):
        pair = _pair_from_run(run)
        return DualReport(value=pair.objective, pair=pair, ray=None)
    # full transport infeasible: dual unbounded along the cut direction
    _require_cut(run)
    d_phi = tuple(1 if i in run.reachable_rows else 0 for i in range(run.nx))
    d_psi = tuple(-1 if j in run.reachable_cols else 0 for j in range(run.ny))
    slope = sum((run.mu.weights[i] for i in run.reachable_rows), 0) - sum(
        (run.nu.weights[j] for j in run.reachable_cols), 0
    )
    base = make_dual_pair((0,) * run.nx, (0,) * run.ny, run.mu, run.nu)
    return DualReport(
        value=INF, pair=base, ray=ImprovingRay(d_phi=d_phi, d_psi=d_psi, slope=slope)
    )


def j_functional(pair: DualPair, pi: Coupling, c: CostMatrix):
    """Plan-averaged potential sum: sum over charged cells of
    (phi_i + psi_j) * pi_ij, in [-oo, oo).

    Defined for feasible pairs against finite-cost full couplings; the value
    does not depend on which finite-cost coupling is used, which is what
    makes it a sound extension of the dual objective to non-summable pairs.
    """
    if is_inf(cost_of(c, pi)):
        raise PreconditionError("plan must have finite cost")
    check = verify_feasible(pair, c)
    if not check.ok:
        raise PreconditionError(f"pair is infeasible at cell {check.violation}")
    total = 0
    for (i, j), m in pi.entries.items():
        p, q = pair.phi[i], pair.psi[j]
        if is_neg_inf(p) or is_neg_inf(q):
            return NEG_INF
        total += (p + q) * m
    return total


def chargeable_cells(c: CostMatrix, mu: Marginal, nu: Marginal) -> frozenset:
    """Cells that some finite-cost full coupling charges (none when no
    finite-cost full coupling exists)."""
    _require_probability(mu, nu)
    return chargeable_from_run(_run_ssp(c, mu, nu, warm=True))


def chargeable_from_run(run: SolverRun) -> frozenset:
    """``chargeable_cells`` read from an untargeted run, on its finite
    cells.

    The run's plan is a finite-cost full coupling whenever one exists, and
    any other one differs from it by a circulation in the residual graph
    over X u Y: an arc X_i -> Y_j for every finite cell (uncapped) and an
    arc Y_j -> X_i for every cell the plan charges.  A finite cell can
    therefore carry mass exactly when X_i and Y_j share a strongly
    connected component; that covers the cells the plan charges, and a
    weightless atom, never charged, sits alone in its component.
    """
    if not modes.eq(run.shipped, 1):
        return frozenset()
    nx = run.nx
    succ = [[] for _ in range(nx + run.ny)]
    for i, j, _v in run.cells:
        succ[i].append(nx + j)
    for i, j in run.scaled_flows:
        succ[nx + j].append(i)
    comp = _strong_components(succ)
    return frozenset((i, j) for i, j, _v in run.cells if comp[i] == comp[nx + j])


def _strong_components(succ) -> list:
    """Component label per node of the digraph ``succ`` (adjacency lists),
    by two passes with explicit stacks (Sharir, *Comput. Math. Appl.* 7(1),
    1981).  The first lists the nodes in the order a depth-first search of
    the graph finishes them.  The second takes them in reverse finishing
    order: a node still unlabelled there is a new component's root, and
    its index labels it and every unlabelled node that reaches it."""
    n = len(succ)
    seen = [False] * n
    finished = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(succ[w])))
                    break
            else:
                work.pop()
                finished.append(v)
    pred = [[] for _ in range(n)]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    label = [None] * n
    for root in reversed(finished):
        if label[root] is not None:
            continue
        label[root] = root
        stack = [root]
        while stack:
            for w in pred[stack.pop()]:
                if label[w] is None:
                    label[w] = root
                    stack.append(w)
    return label


class RelaxedDualReport(Record):
    value: object
    pair: DualPair
    chargeable: frozenset


def relaxed_dual_value(c: CostMatrix, mu: Marginal, nu: Marginal) -> RelaxedDualReport:
    """Dual optimum with constraints kept only on chargeable cells.

    The plain optimal pair is one (D = D_rel = P, module docstring), so
    the pair, its value and the chargeable set all read from one warm run.
    Requires at least one finite-cost full coupling."""
    _require_probability(mu, nu)
    run = _run_ssp(c, mu, nu, warm=True)
    if not modes.eq(run.shipped, 1):
        raise NotApplicableError(
            "no finite-cost full coupling exists; the relaxed dual is undefined"
        )
    rep = dual_from_run(run)
    return RelaxedDualReport(value=rep.value, pair=rep.pair, chargeable=chargeable_from_run(run))


class AttainmentReport(Record):
    attained: bool
    level: object | None  # least grid level reaching the relaxed value
    pair: DualPair | None
    h: CostMatrix | None  # (phi_i + psi_j)_+ , a finite attaining ladder
    certified_bound: object | None  # max cell of h; truncating there attains
    relaxed: object


def attainment_check(
    c: CostMatrix, mu: Marginal, nu: Marginal, m_grid: Sequence
) -> AttainmentReport:
    """Find the least level of an ascending grid of constant truncation
    levels whose truncated value already equals the relaxed value.

    Truncated values are nondecreasing in the level and never exceed the
    relaxed value, so the levels that attain form a tail of the grid.  One
    truncation ladder checks and climbs the whole grid, before the relaxed
    value is solved for, and the first attaining level is read off its
    steps.  When the
    relaxed value is finite, the optimal pair yields the finite ladder
    h = (phi_i + psi_j)_+ with truncated value equal to the relaxed value,
    so truncation at max(h) is a certified sufficient level; both facts are
    asserted here, by solves independent of the ladder, rather than
    trusted.
    """
    _require_probability(mu, nu)
    ladder = truncation_ladder(c, mu, nu, m_grid)
    rep = dual_value(c, mu, nu)
    relaxed = rep.value
    if is_inf(relaxed):
        return AttainmentReport(
            attained=False,
            level=None,
            pair=None,
            h=None,
            certified_bound=None,
            relaxed=INF,
        )
    pair = rep.pair
    h = make_cost_matrix(
        [
            [max(pair.phi[i] + pair.psi[j], 0) for j in range(c.ny)]
            for i in range(c.nx)
        ]
    )
    bound = max(v for _, _, v in h.cells())
    if not modes.eq(primal_value(truncate_cost(c, h), mu, nu), relaxed):
        raise PostconditionError("attainment ladder failed to reach the relaxed value")
    if not modes.eq(primal_value(truncate_at(c, bound), mu, nu), relaxed):
        raise PostconditionError("certified bound failed to reach the relaxed value")
    level = next((s.level for s in ladder if modes.eq(s.value, relaxed)), None)
    return AttainmentReport(
        attained=level is not None,
        level=level,
        pair=pair,
        h=h,
        certified_bound=bound,
        relaxed=relaxed,
    )
