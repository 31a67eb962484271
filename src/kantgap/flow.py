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
maximum flow.  So runs read only for those two, which may end short of
full mass, start warm too in exact mode when the masses are equal
(``_warm_max_flow``): ``max_shippable_mass`` and ``kellerer``'s matching
runs, whose greedy start ships a maximal matching before the first search.
Float mode keeps them cold: a warm plan adds its mass up in another order,
which can move the last bit of the printed value.  What a warm run does not
have is a profile: the greedy shipments carry no slopes, and below full
mass a residual cycle through the source may have negative cost, so a short
warm plan need not be the cheapest of its mass.  ``profile_from_run``,
``segment_potentials`` and ``value_from_run`` at any other mass therefore
raise ``PreconditionError`` on a warm run.

Re-optimisation across truncation levels: ``truncation_ladder`` answers
P(c /\\ level) for a nondecreasing sequence of finite levels from one
network.  Every cell is finite under a finite level, so the network holds
all of them, and in exact mode lc also covers the levels' denominators.
The first level is a warm run.  Raising the level only raises cell costs,
so the potentials keep cost(i,j) - u_i - v_j >= 0 on every cell: they stay
feasible.  A cell whose cost rose and that carries flow would break
complementary slackness (its reverse arc gets a negative reduced cost), so
its flow goes back to its source and sink arcs.  The source potential is
then reset to max pot X_i and the sink's to min pot Y_j, as the warm start
sets them, so the reopened source and sink arcs have reduced cost >= 0, and
the Dijkstra loop runs unchanged to full mass (Ahuja-Magnanti-Orlin, ch. 9).
Only the unshipped mass is re-routed.  On the 20-level sweep over the
finite-cost quantiles of a random 60x60 instance with 30% of its cells
forbidden, this takes 188 Dijkstra runs and unships 137 cells, where
fresh warm runs per level take 1,286.

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
from typing import Iterator, List, Optional, Sequence, Tuple

from . import modes
from .core import (
    INF,
    CostMatrix,
    Coupling,
    Marginal,
    _common_denominator,
    _scaled,
    _unscaled,
    is_inf,
    make_coupling,
)
from .errors import (
    DimensionMismatchError,
    InfeasibleMassError,
    InputError,
    NegativeWeightError,
    PostconditionError,
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


def _potential_pair(pots, nx: int, ny: int, scale: int) -> PotentialPair:
    """(u, v) from raw node potentials: u_i = -pot(X_i), v_j = pot(Y_j),
    both divided by scale."""
    return PotentialPair(
        u=tuple(_unscaled(-pots[1 + i], scale) for i in range(nx)),
        v=tuple(_unscaled(pots[1 + nx + j], scale) for j in range(ny)),
    )


def _require_instance(c: CostMatrix, mu: Marginal, nu: Marginal, warm: bool) -> None:
    if c.nx != mu.space.size or c.ny != nu.space.size:
        raise DimensionMismatchError("cost matrix does not match the marginals")
    if warm and not modes.eq(mu.mass, nu.mass):
        raise PreconditionError("a warm start needs marginals of equal mass")


class _Network:
    """The network source -> X -> Y -> sink on cells (i, j, cost), with the
    state of a run on it; costs and weights come scaled.

    Arc a runs from head[a ^ 1] to head[a] with residual capacity res[a]
    (math.inf = uncapped) and cost cost[a]; arcs 2k and 2k + 1 are a forward
    arc and its reverse, so the flow on a forward arc a is res[a ^ 1].  The
    source arc of X_i is 2i, the sink arc of Y_j is 2(nx + j), and the k-th
    cell's arc is first_cell + 2k.  Flat lists keep the network free of
    reference cycles, so it is freed as soon as its run returns.
    """

    def __init__(self, nx: int, ny: int, cells: list, mu_w: list, nu_w: list):
        n_nodes = nx + ny + 2
        source, sink = 0, n_nodes - 1
        adj: List[List[int]] = [[] for _ in range(n_nodes)]
        head, res, cost = [], [], []
        arcs = [(source, 1 + i, w, 0) for i, w in enumerate(mu_w)]
        arcs += [(1 + nx + j, sink, w, 0) for j, w in enumerate(nu_w)]
        arcs += [(1 + i, 1 + nx + j, math.inf, cij) for i, j, cij in cells]
        for u, v, res_uv, cost_uv in arcs:
            adj[u].append(len(head))
            adj[v].append(len(head) + 1)
            head += (v, u)
            res += (res_uv, 0)
            cost += (cost_uv, -cost_uv)
        self.nx, self.ny, self.cells, self.first_cell = nx, ny, cells, 2 * (nx + ny)
        self.adj, self.head, self.res, self.cost = adj, head, res, cost
        self.potentials = [0] * n_nodes
        self.shipped = self.total_cost = self.searches = 0

    def warm_start(self) -> None:
        """Reduction potentials and greedy shipments on the fresh network
        (module docstring); a row or column without cells keeps 0."""
        nx, cells, res, potentials = self.nx, self.cells, self.res, self.potentials
        tol = modes.tolerance()
        row_min: list = [None] * nx  # u
        for i, _j, cij in cells:
            if row_min[i] is None or cij < row_min[i]:
                row_min[i] = cij
        row_min = [0 if x is None else x for x in row_min]
        col_min: list = [None] * self.ny  # v
        for i, j, cij in cells:
            if col_min[j] is None or cij - row_min[i] < col_min[j]:
                col_min[j] = cij - row_min[i]
        col_min = [0 if x is None else x for x in col_min]
        potentials[1 : 1 + nx] = [-x for x in row_min]
        potentials[1 + nx : -1] = col_min
        potentials[0] = -min(row_min)
        potentials[-1] = min(col_min)
        shipped = total_cost = 0
        for k, (i, j, cij) in enumerate(cells):
            if cij - row_min[i] != col_min[j]:
                continue
            row, col = 2 * i, 2 * (nx + j)  # the source arc of X_i, the sink arc of Y_j
            delta = min(res[row], res[col])
            if not delta > tol:
                continue
            for a in (row, self.first_cell + 2 * k, col):
                res[a] -= delta
                res[a ^ 1] += delta
            shipped += delta
            total_cost += cij * delta
        self.shipped, self.total_cost = shipped, total_cost

    def augment(self, target=None, segments: Optional[list] = None):
        """Ship along shortest augmenting paths until the shipped mass
        reaches the (scaled) target or, without one, until a search misses
        the sink.

        With ``segments``, append (shipped, total cost, potentials) where
        each maximal run of equal slopes ends, still scaled.  Returns the
        settled flags of the last search (None when none ran)."""
        adj, head, res, cost = self.adj, self.head, self.res, self.cost
        potentials = self.potentials
        n_nodes = len(adj)
        source, sink = 0, n_nodes - 1
        tol = modes.tolerance()
        shipped, total_cost = self.shipped, self.total_cost

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

        last_sigma = settled = None
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
            if segments is not None:
                point = (shipped, total_cost, tuple(potentials))
                if sigma == last_sigma:
                    segments[-1] = point
                else:
                    segments.append(point)
                    last_sigma = sigma
        self.shipped, self.total_cost = shipped, total_cost
        self.searches += searches
        return settled

    def raise_costs(self, costs: list) -> int:
        """Raise the cell arcs to ``costs`` (none may fall), unship every
        cell whose cost rose and that carries flow, and reset the source and
        sink potentials (module docstring).  Returns the cells unshipped."""
        nx, res, cost, potentials = self.nx, self.res, self.cost, self.potentials
        tol = modes.tolerance()
        shipped = total_cost = unshipped = 0
        a = self.first_cell
        for (i, j, _), x in zip(self.cells, costs):
            f = res[a + 1]
            if x != cost[a]:
                cost[a], cost[a + 1] = x, -x
                if f > tol:
                    res[a + 1] = 0
                    # back through the source arc of X_i and the sink arc of Y_j
                    for b in (2 * i, 2 * (nx + j)):
                        res[b] += f
                        res[b + 1] -= f
                    unshipped += 1
                    f = 0
            shipped += f
            total_cost += x * f
            a += 2
        self.shipped, self.total_cost = shipped, total_cost
        potentials[0] = max(potentials[1 : 1 + nx])
        potentials[-1] = min(potentials[1 + nx : -1])
        return unshipped


def _run_ssp(
    c: CostMatrix, mu: Marginal, nu: Marginal, target=None, warm: bool = False
) -> SolverRun:
    _require_instance(c, mu, nu, warm)
    nx, ny = c.nx, c.ny
    cells = list(c.finite_cells())
    mu_w, nu_w = list(mu.weights), list(nu.weights)
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

    net = _Network(nx, ny, cells, mu_w, nu_w)
    segments = None if warm else []
    if warm:
        net.warm_start()
    settled = net.augment(target, segments)

    if target is None:  # the last search missed the sink (module docstring)
        rows = frozenset(i for i in range(nx) if settled[1 + i])
        cols = frozenset(j for j in range(ny) if settled[1 + nx + j])
    else:
        rows = cols = None
    tol = modes.tolerance()
    cell_flows = zip(cells, net.res[net.first_cell + 1 :: 2])  # reverse arcs' residuals
    flows = {(i, j): _unscaled(f, lw) for (i, j, _), f in cell_flows if f > tol}
    return SolverRun(
        nx=nx,
        ny=ny,
        shipped=_unscaled(net.shipped, lw),
        cost=_unscaled(net.total_cost, lc * lw),
        segments=[
            (_unscaled(m, lw), _unscaled(x, lc * lw), p) for m, x, p in segments or ()
        ],
        final_potentials=_potential_pair(net.potentials, nx, ny, lc),
        flows=flows,
        reachable_rows=rows,
        reachable_cols=cols,
        potential_scale=lc,
        searches=net.searches,
        full_mass=_unscaled(sum(mu_w), lw) if warm else None,
    )


@dataclass(frozen=True)
class LadderStep:
    """One level of a truncation ladder: the level (a number or a
    ``CostMatrix``), the value P(c /\\ level), and the Dijkstra runs and
    the cells unshipped that re-optimising to it took."""

    level: object
    value: object
    searches: int
    unshipped: int


def truncation_ladder(
    c: CostMatrix, mu: Marginal, nu: Marginal, levels: Sequence
) -> Iterator[LadderStep]:
    """P(c /\\ level) for each of a nondecreasing sequence of finite
    levels, each a number M >= 0 or a ``CostMatrix`` h, from one network
    (module docstring).

    The levels are checked when called, nondecreasing cell by cell; each is
    solved when its step is asked for, so a caller may stop early.
    """
    _require_instance(c, mu, nu, warm=True)
    ny = c.ny
    checked = []  # (level, its cell values row-major, or the number)
    prev = prev_max = None
    for k, level in enumerate(levels):
        if isinstance(level, CostMatrix):
            if (level.nx, level.ny) != (c.nx, ny):
                raise DimensionMismatchError("cost matrices have different shapes")
            vals = [v for row in level.rows for v in row]
            for n, v in enumerate(vals):
                if is_inf(v):
                    raise InputError(f"level {k} is infinite at {divmod(n, ny)}")
                if prev is not None and v < (prev[n] if isinstance(prev, list) else prev):
                    raise InputError(
                        f"levels decrease at {divmod(n, ny)} between {k - 1} and {k}"
                    )
            prev_max = max(vals)
        else:
            level = vals = modes.coerce(level)
            if prev_max is not None and level < prev_max:
                raise InputError("constant levels must be nondecreasing")
            if level < 0:
                raise NegativeWeightError(f"truncation level {level} is negative")
            prev_max = level
        checked.append((level, vals))
        prev = vals
    return _climb(c, mu, nu, checked)


def _climb(
    c: CostMatrix, mu: Marginal, nu: Marginal, checked: list
) -> Iterator[LadderStep]:
    """The steps of ``truncation_ladder`` over its checked levels."""
    if not checked:
        return
    base = [v for row in c.rows for v in row]
    mu_w, nu_w = list(mu.weights), list(nu.weights)
    exact = modes.is_exact()
    if exact:
        finite = [v for v in base if v is not INF]
        for _, vals in checked:
            finite += vals if isinstance(vals, list) else [vals]
        lc = _common_denominator(finite)
        lw = _common_denominator(mu_w + nu_w)
        base = [v if v is INF else _scaled(v, lc) for v in base]
        mu_w = [_scaled(w, lw) for w in mu_w]
        nu_w = [_scaled(w, lw) for w in nu_w]
    else:
        lc = lw = 1
    full = min(sum(mu_w), sum(nu_w))
    net = None
    for level, vals in checked:
        # min(c, level) per cell, scaled; a cell where c is INF takes the level
        if not isinstance(vals, list):
            vals = [_scaled(vals, lc) if exact else vals] * len(base)
        elif exact:
            vals = [_scaled(v, lc) for v in vals]
        costs = [m if v is INF or v > m else v for v, m in zip(base, vals)]
        if net is None:
            cells = [(*divmod(n, c.ny), x) for n, x in enumerate(costs)]
            net = _Network(c.nx, c.ny, cells, mu_w, nu_w)
            net.warm_start()
            unshipped = 0
        else:
            unshipped = net.raise_costs(costs)
        before = net.searches
        net.augment(full)
        if full - net.shipped > modes.tolerance():
            raise PostconditionError(
                f"a truncated network shipped {_unscaled(net.shipped, lw)} "
                f"of {_unscaled(full, lw)}"
            )
        value = _unscaled(net.total_cost, lc * lw)
        yield LadderStep(level, value, net.searches - before, unshipped)


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


def _warm_max_flow(mu: Marginal, nu: Marginal) -> bool:
    """Whether a run read only for its shipped mass and min cut starts
    warm (module docstring)."""
    return modes.is_exact() and mu.mass == nu.mass


def max_shippable_mass(c: CostMatrix, mu: Marginal, nu: Marginal):
    """Largest mass a partial coupling on finite cells can carry."""
    return _run_ssp(c, mu, nu, warm=_warm_max_flow(mu, nu)).shipped
