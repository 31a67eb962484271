"""Exact parametric min-cost flow over the finite-cost cells of a grid.

The engine runs successive shortest augmenting paths with node potentials on
the bipartite network

    source --(cap mu_i)--> X_i --(finite cells, uncapped)--> Y_j --(cap nu_j)--> sink

All arc costs are nonnegative, so zero potentials are valid initially and
Dijkstra stays correct throughout.  Successive shortest-path costs are
nondecreasing, which makes the shipped-mass -> cost profile convex piecewise
linear; the profile is the central output, since every partial, relaxed and
truncated transport value is a point evaluation on it.

Why mass is pinned exactly: the partial problem asks for plans of mass at
least a target, but with costs >= 0 the profile is nondecreasing in mass, so
the optimum over "mass >= t" is attained at mass exactly t.  The solver
therefore parametrizes by exact shipped mass.

Infinite cells are never added to the network.  Zero-weight atoms keep their
nodes (with zero-capacity source/sink arcs) so indices line up with inputs.
Every arc keeps only its residual capacity (``math.inf`` on a cell arc); a
cell's flow is its reverse arc's residual.  A run without a target ends with
a search that misses the sink, which settles exactly what the source reaches
in the residual graph: the source side of a minimum cut, ``reachable_rows``
and ``reachable_cols``.  A targeted run has no cut.

Certificates: cell arcs are uncapped, hence always residual, so the running
potentials satisfy cost(i,j) - u_i - v_j >= 0 on *every* finite cell at every
stage, and cells carrying flow satisfy equality (their reverse arcs are
residual too).  The potentials recorded at each breakpoint are thus exact
dual certificates for the profile value there.

Exact arithmetic: the engine runs on Python ints.  Costs are scaled by lc,
the lcm of the finite costs' denominators, and masses (weights and the
target) by lw, the lcm of theirs.  Scaling by a positive constant keeps
every comparison and tie, so the ints take the same paths the rationals
would.  The profile is recorded as the run goes: ``SolverRun.segments``
holds, for each breakpoint after (0, 0), the running shipped mass and total
cost with a snapshot of the potentials there.  The scaling is undone once,
when the run is returned: the final potentials are divided by lc, masses
and flows by lw, costs by lc*lw.  The snapshots stay scaled in the run,
since only a full profile reads them; ``profile_from_run`` unscales them.
Integral results come out as ``int``, the rest as ``Fraction``.  Float mode
runs the same loop on the floats as given, unscaled.

Determinism: adjacency lists are built in a fixed order (sources, sinks,
then cells row-major) and Dijkstra breaks distance ties by node index with
strict-improvement relaxation, so profiles, couplings and potentials are
reproducible byte for byte.

Warm start: a caller that reads only the answer at full mass (the value,
the dual pair, the witness plan) asks for ``warm=True``.  The run then starts
from Jonker-Volgenant reduction potentials on the scaled costs,
u_i = min_j c_ij and v_j = min_i (c_ij - u_i) (pot X_i = -u_i,
pot Y_j = v_j, pot source = -min u, pot sink = min v), so every cell and
every unsaturated source and sink arc has reduced cost >= 0.  It ships
greedily, row-major, on the cells these potentials make tight, and the
Dijkstra loop runs unchanged from that pseudoflow (Ahuja-Magnanti-Orlin,
*Network Flows*, 1993, ch. 9).  The reverse source and sink arcs the greedy
opens may have negative reduced cost, but no search scans them: the source
is settled first and a search stops at the sink.  At full mass every source
and sink arc is saturated, so the final potentials certify the plan as
above; the shipped mass and the reachable rows and columns are those of any
maximum flow.  What a warm run does not have is a profile: the greedy
shipments carry no slopes, and below full mass a residual cycle through the
source may have negative cost, so a short warm plan need not be the
cheapest of its mass.  ``profile_from_run``, ``segment_potentials`` and
``value_from_run`` at any other mass therefore raise ``PreconditionError``
on a warm run.

Size: each augmentation is one Dijkstra (``SolverRun.searches`` counts
them), so the time grows with the number of augmenting paths, not only with
the number of cells.  A random 120x120 instance with 30% of its cells
forbidden (~10^4 finite cells) traces its profile in about 0.7 s in either
mode on one core (CPython 3.11, 275 searches); a warm run of it takes about
0.2 s (103 searches).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import modes
from .core import (
    INF,
    CostMatrix,
    Coupling,
    Marginal,
    make_coupling,
)
from .errors import (
    DimensionMismatchError,
    InfeasibleMassError,
    InputError,
    PreconditionError,
)


@dataclass(frozen=True)
class PotentialPair:
    """Node potentials (u over X, v over Y) with c(i,j) - u_i - v_j >= 0
    on all finite cells of the instance they certify."""

    u: Tuple
    v: Tuple


@dataclass(frozen=True)
class TransportProfile:
    """Convex piecewise-linear map: shipped mass -> minimum cost.

    ``breakpoints`` starts at (0, 0) and ends at ``max_mass``, the largest
    mass the finite-cost cells can carry.  ``potentials[k]`` certifies
    ``breakpoints[k]``.
    """

    breakpoints: Tuple[Tuple[object, object], ...]
    potentials: Tuple[PotentialPair, ...]

    @property
    def max_mass(self):
        return self.breakpoints[-1][0]

    def __post_init__(self):
        bps = self.breakpoints
        if not bps or bps[0] != (0, 0):
            raise InputError("profile must start at (0, 0)")
        if len(bps) != len(self.potentials):
            raise DimensionMismatchError("one potential pair per breakpoint")
        prev_slope = None
        for (m0, c0), (m1, c1) in zip(bps, bps[1:]):
            if not m1 > m0:
                raise InputError("breakpoint masses must strictly increase")
            if not modes.geq(c1, c0):
                raise InputError("profile costs must be nondecreasing")
            slope = modes.div(c1 - c0, m1 - m0)
            if prev_slope is not None and not modes.geq(slope, prev_slope):
                raise InputError("profile slopes must be nondecreasing")
            prev_slope = slope


def evaluate_profile(profile: TransportProfile, m):
    """Value of the profile at mass m: linear interpolation on [0, max_mass],
    ``INF`` beyond, error for negative m."""
    return _interpolate(profile.breakpoints, m)


def _interpolate(bps, m):
    """The polyline through the (mass, cost) breakpoints ``bps``, which
    start at (0, 0), at mass m: ``INF`` beyond the last mass."""
    m = modes.coerce(m)
    if m < 0:
        raise InputError(f"mass {m} is negative")
    if not modes.leq(m, bps[-1][0]):
        return INF
    k = bisect_right(bps, m, key=lambda bp: bp[0]) - 1
    if k == len(bps) - 1:
        return bps[-1][1]
    (m0, c0), (m1, c1) = bps[k], bps[k + 1]
    return c0 + modes.div((c1 - c0) * (m - m0), m1 - m0)


@dataclass
class SolverRun:
    """Full record of one parametric solve.

    ``segments`` holds (mass, cost, snapshot) at each breakpoint of the
    profile after (0, 0), one per maximal run of equal slopes.  Mass and
    cost are unscaled; a snapshot is the engine's raw node potentials, still
    scaled by ``potential_scale``, and ``segment_potentials`` unscales it on
    demand.
    ``searches`` counts the Dijkstra runs.  ``full_mass`` is None on a run
    that traced the profile from zero flow, and the marginals' mass on a
    warm-started run, which answers only there and has no segments.
    ``reachable_rows`` and ``reachable_cols`` are the source side of a min
    cut, and None on a run stopped at its target.
    """

    nx: int
    ny: int
    shipped: object
    cost: object
    segments: List[Tuple[object, object, tuple]]
    final_potentials: PotentialPair
    flows: dict  # (i, j) -> positive mass
    reachable_rows: Optional[frozenset]
    reachable_cols: Optional[frozenset]
    potential_scale: int
    searches: int
    full_mass: object = None

    @property
    def breakpoints(self) -> tuple:
        """(0, 0) followed by each segment's (mass, cost)."""
        return ((0, 0),) + tuple((mass, cost) for mass, cost, _ in self.segments)

    def segment_potentials(self, k: int) -> PotentialPair:
        """The potentials certifying the profile at the end of segment k."""
        _require_profile(self)
        return _potential_pair(self.segments[k][2], self.nx, self.ny, self.potential_scale)


def _require_profile(run: SolverRun) -> None:
    if run.full_mass is not None:
        raise PreconditionError(
            f"a warm-started run answers only at its full mass {run.full_mass}; "
            "it traced no profile"
        )


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


def _potential_pair(pots, nx: int, ny: int, scale: int) -> PotentialPair:
    """(u, v) from raw node potentials: u_i = -pot(X_i), v_j = pot(Y_j),
    both divided by scale."""
    return PotentialPair(
        u=tuple(_unscaled(-pots[1 + i], scale) for i in range(nx)),
        v=tuple(_unscaled(pots[1 + nx + j], scale) for j in range(ny)),
    )


def _run_ssp(
    c: CostMatrix, mu: Marginal, nu: Marginal, target=None, warm: bool = False
) -> SolverRun:
    nx, ny = c.nx, c.ny
    if nx != mu.space.size or ny != nu.space.size:
        raise DimensionMismatchError("cost matrix does not match the marginals")
    if warm and not modes.eq(mu.mass, nu.mass):
        raise PreconditionError("a warm start needs marginals of equal mass")

    n_nodes = nx + ny + 2
    source, sink = 0, n_nodes - 1
    cells = list(c.finite_cells())
    mu_w, nu_w = list(mu.weights), list(nu.weights)
    tol = modes.tolerance()
    # exact mode: ints, costs times lc and masses times lw (module docstring)
    if modes.is_exact():
        lc = _common_denominator(cij for _, _, cij in cells)
        lw = _common_denominator(mu_w + nu_w + ([] if target is None else [target]))
        cells = [(i, j, _scaled(cij, lc)) for i, j, cij in cells]
        mu_w = [_scaled(w, lw) for w in mu_w]
        nu_w = [_scaled(w, lw) for w in nu_w]
        if target is not None:
            target = _scaled(target, lw)
    else:
        lc = lw = 1

    # Arc a runs from head[a ^ 1] to head[a] with residual capacity res[a]
    # (math.inf = uncapped); arcs 2k and 2k + 1 are a forward arc and its
    # reverse, so the flow on a forward arc a is res[a ^ 1].  The k-th finite
    # cell's arc is first_cell + 2k.  Flat lists keep the network free of
    # reference cycles, so it is freed as soon as the run returns.
    adj: List[List[int]] = [[] for _ in range(n_nodes)]
    head, res, cost = [], [], []
    first_cell = 2 * (nx + ny)
    arcs = [(source, 1 + i, w, 0) for i, w in enumerate(mu_w)]
    arcs += [(1 + nx + j, sink, w, 0) for j, w in enumerate(nu_w)]
    arcs += [(1 + i, 1 + nx + j, math.inf, cij) for i, j, cij in cells]
    for u, v, res_uv, cost_uv in arcs:
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += (v, u)
        res += (res_uv, 0)
        cost += (cost_uv, -cost_uv)

    potentials = [0] * n_nodes
    shipped = total_cost = 0
    if warm:
        # reduction potentials and greedy shipments (module docstring);
        # a row or column without finite cells keeps 0
        row_min: list = [None] * nx  # u
        for i, _j, cij in cells:
            if row_min[i] is None or cij < row_min[i]:
                row_min[i] = cij
        row_min = [0 if x is None else x for x in row_min]
        col_min: list = [None] * ny  # v
        for i, j, cij in cells:
            if col_min[j] is None or cij - row_min[i] < col_min[j]:
                col_min[j] = cij - row_min[i]
        col_min = [0 if x is None else x for x in col_min]
        potentials[1 : 1 + nx] = [-x for x in row_min]
        potentials[1 + nx : sink] = col_min
        potentials[source] = -min(row_min)
        potentials[sink] = min(col_min)
        for k, (i, j, cij) in enumerate(cells):
            if cij - row_min[i] != col_min[j]:
                continue
            row, col = 2 * i, 2 * (nx + j)  # the source arc of X_i, the sink arc of Y_j
            delta = min(res[row], res[col])
            if not delta > tol:
                continue
            for a in (row, first_cell + 2 * k, col):
                res[a] -= delta
                res[a ^ 1] += delta
            shipped += delta
            total_cost += cij * delta

    def dijkstra():
        dist = [None] * n_nodes
        parent: List[Optional[int]] = [None] * n_nodes  # arc into the node
        dist[source] = 0
        heap = [(0, source)]
        settled = [False] * n_nodes
        while heap:
            d, u = heapq.heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            if u == sink:
                break
            pu = potentials[u]
            for a in adj[u]:
                v = head[a]
                if settled[v] or not res[a] > tol:
                    continue
                nd = d + (cost[a] + pu - potentials[v])
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = a
                    heapq.heappush(heap, (nd, v))
        return dist, parent, settled

    # (shipped, total cost, potentials) where each maximal run of equal
    # slopes ends, still scaled
    segments: List[Tuple[object, object, tuple]] = []
    last_sigma = None
    searches = 0
    while target is None or target - shipped > tol:
        dist, parent, settled = dijkstra()
        searches += 1
        if not settled[sink]:
            break
        d_sink = dist[sink]
        for v in range(n_nodes):
            potentials[v] += dist[v] if settled[v] and dist[v] < d_sink else d_sink

        # trace the path and its true (unreduced) unit cost
        path: List[int] = []
        sigma, v = 0, sink
        while v != source:
            a = parent[v]
            path.append(a)
            sigma += cost[a]
            v = head[a ^ 1]
        delta = min(res[a] for a in path)  # finite: the source arc is capped
        if target is not None:
            delta = min(delta, target - shipped)
        for a in path:
            res[a] -= delta
            res[a ^ 1] += delta
        shipped += delta
        total_cost += sigma * delta
        if not warm:
            point = (shipped, total_cost, tuple(potentials))
            if sigma == last_sigma:
                segments[-1] = point
            else:
                segments.append(point)
                last_sigma = sigma

    if target is None:  # the last search missed the sink (module docstring)
        rows = frozenset(i for i in range(nx) if settled[1 + i])
        cols = frozenset(j for j in range(ny) if settled[1 + nx + j])
    else:
        rows = cols = None
    cell_flows = zip(cells, res[first_cell + 1 :: 2])  # reverse arcs' residuals
    flows = {(i, j): _unscaled(f, lw) for (i, j, _), f in cell_flows if f > tol}
    return SolverRun(
        nx=nx,
        ny=ny,
        shipped=_unscaled(shipped, lw),
        cost=_unscaled(total_cost, lc * lw),
        segments=[(_unscaled(m, lw), _unscaled(x, lc * lw), p) for m, x, p in segments],
        final_potentials=_potential_pair(potentials, nx, ny, lc),
        flows=flows,
        reachable_rows=rows,
        reachable_cols=cols,
        potential_scale=lc,
        searches=searches,
        full_mass=_unscaled(sum(mu_w), lw) if warm else None,
    )


def profile_from_run(run: SolverRun) -> TransportProfile:
    """The profile an untargeted run traced, with a certificate per
    breakpoint."""
    _require_profile(run)
    zero_pots = PotentialPair(u=(0,) * run.nx, v=(0,) * run.ny)
    return TransportProfile(
        breakpoints=run.breakpoints,
        potentials=(zero_pots,)
        + tuple(run.segment_potentials(k) for k in range(len(run.segments))),
    )


def value_from_run(run: SolverRun, m):
    """``evaluate_profile(profile_from_run(run), m)``, without unscaling the
    per-segment potentials.  A warm run answers only at its full mass."""
    if run.full_mass is not None:
        m = modes.coerce(m)
        if not modes.eq(m, run.full_mass):
            _require_profile(run)
        return run.cost if modes.leq(m, run.shipped) else INF
    return _interpolate(run.breakpoints, m)


def solve_profile(c: CostMatrix, mu: Marginal, nu: Marginal) -> TransportProfile:
    """The full cost-vs-mass profile with a dual certificate per breakpoint."""
    return profile_from_run(_run_ssp(c, mu, nu))


def optimal_coupling_at(c: CostMatrix, mu: Marginal, nu: Marginal, m) -> Coupling:
    """A minimizing partial coupling of mass exactly m (deterministic)."""
    m = modes.coerce(m)
    if m < 0:
        raise InputError(f"mass {m} is negative")
    full = modes.eq(m, mu.mass) and modes.eq(m, nu.mass)
    run = _run_ssp(c, mu, nu, target=m, warm=full)
    if not modes.eq(run.shipped, m):
        raise InfeasibleMassError(
            f"requested mass {m} exceeds the largest shippable mass {run.shipped}"
        )
    return make_coupling(mu.space, nu.space, run.flows)


def max_shippable_mass(c: CostMatrix, mu: Marginal, nu: Marginal):
    """Largest mass a partial coupling on finite cells can carry."""
    return _run_ssp(c, mu, nu).shipped
