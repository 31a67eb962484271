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
A run reads its cost only through ``nx``, ``ny``, ``scaled`` and ``lc``,
the finite cells in engine form and their scale, which a ``CostMatrix``
holds as it was read.  So a ``kellerer.CellSet`` is a cost too: its cells
at 0 with scale 1, forbidden elsewhere.  No grid is built or scanned, and
no cost is rescaled.
The network is indexed by cell, with no arc list: each finite cell keeps its
cost and its flow, each row and column what is left on its source or sink
arc (``_Network``).  A search steps forward through any cell of a row,
uncapped at the cell's cost, and backward through a cell that carries flow
into a column, with that flow as its room, at minus the cost.  A run
without a target ends with a search that finds no column with room, which
settles exactly what the source reaches in the residual graph: the source
side of a minimum cut, ``reachable_rows`` and ``reachable_cols``.  A
targeted run has no cut, and a reader of the cut raises
``PreconditionError`` on it.

Certificates: forward steps are uncapped, hence always open, so the
potentials after each search satisfy cost(i,j) - u_i - v_j >= 0 on *every*
finite cell, and cells carrying flow satisfy equality (their backward steps
are open too).  Within a search that resumes, the same holds for the raise
that its last shipment so far would get.  The potentials recorded at each
breakpoint are thus exact dual certificates for the profile value there.

Exact arithmetic: the engine runs on Python ints.  Costs are scaled by lc,
the lcm of the finite costs' denominators, and masses (weights and the
target) by lw, the lcm of theirs.  A ``CostMatrix`` holds its costs scaled
(``core.make_cost_matrix``), and one helper, ``core._ints``, scales the
masses of every network and the levels of every ladder; those two are the
only places where the modes part: float mode takes the floats as given,
with lc = lw = 1, and runs the same code.  A scale of more than
``core.MAX_SCALE_BITS`` bits is refused there with ``InputError``: a cost's
when its matrix is built, a mass's before any network is, since every
scaled number holds it.  Scaling by a positive constant keeps every comparison
and tie, so the ints take the same paths the rationals would.  The profile
is recorded as the run goes: ``SolverRun.segments`` holds, for each breakpoint
after (0, 0), the running shipped mass and total cost with a snapshot of
the potentials there.  The run returns its shipped mass and cost, and
each segment's mass and cost, unscaled: masses divided by lw, costs by
lc*lw.  Everything else stays in engine form, and each reader divides once
what it reads: the snapshots, the final potentials and the finite cells'
costs (times lc), the flows and the weights (times lw).  The run also
keeps the marginals it was given, so a reader takes the run and its own
question, never the instance: ``SolverRun.plan`` builds the witness plan
from the unscaled flows on the marginals' spaces, and its row, column and
total sums are derived from those entries when read; ``dual.dual_from_run``
lowers the weightless atoms' potentials on the scaled cells and sums the
objective over the scaled potentials and weights.  Every number leaves
engine form through ``modes.div``, in the mode it is read in: an integral
exact result as ``int``, the rest as ``Fraction``, and in float mode a
float, the engine's int 0 (a run that shipped nothing, a potential no
search raised) included.

Determinism: the search, ``_Network._search``, is bipartite.  The source
pushes the rows with room in index order, a row scans its cells in cell
order (row-major, each step open), and a column the sorted list of its
cells that carry flow, which every shipment keeps current.  No search scans
a sink arc or steps back to the source or the sink.  A search stops at each
settled column whose sink arc has room, the stop rule of Jonker and
Volgenant (*Computing* 38, 1987): the sink takes that column's label, and
the path to it is shipped.  A path's room is the least of that column's
room, the flows of the cells it crosses backward and its row's room; its
unit cost is summed from the sink back, plus each forward cell's cost and
minus each backward one's.  Dijkstra breaks distance ties by node index
with strict-improvement relaxation, so profiles, couplings and potentials
are reproducible byte for byte.

Resumption: a shipment that fills only its column's sink arc leaves its
search valid.  That holds when, after it, the path's first row still has
room, every cell the path crossed backward still carries flow, and the
target, if any, is not reached: the path's room is the least of its
column's room and those three, so the column's room was the least, and the
column is full.  The residual graph then lost only that sink arc; each cell
the path crossed forward now also steps back, but it joins two settled
nodes at equal labels, since the path is tight, so no label changes.  The
search therefore resumes on the same heap, labels and parents: the filled
column is scanned as any full one, and the next settled column with room
ends the next path.  Any other shipment ends the search
(Ahuja-Magnanti-Orlin, *Network Flows*, 1993, ch. 9, the primal-dual
method).  The potentials are raised once per search, when it ends, with the
label d of the last column it shipped to (``_Network._raised``): each node
settled below d gains its label, every other node gains d.  A search that
finds no column with room and shipped nothing raises nothing.  The network
counts each fresh search as it starts and each path as it is shipped, and
``SolverRun.searches`` and ``SolverRun.shipments`` report the counts.

A cold run (zero flow, zero potentials) takes the paths and sets the
potentials that a search on to the sink would.  A column whose sink arc has
room never settles below the sink's label, since its zero-cost sink arc
would give the sink a smaller one.  So each search adds the same d_sink to
every such column and to the sink, and they keep one shared potential.  No
path runs back through a sink arc, so a full column never reopens.  Hence
the first settled column with room carries the sink's label, and
strict-improvement relaxation would make it the sink's parent.  Every node
a search on to the sink would settle after it has exactly that label, so
the potential updates agree.  A resumed search keeps this path by path:
once a column is full, the next settled column with room carries the label
the sink would take through it.  (In float mode a rounded reduced cost may
fall just below 0, and the two rules may then part by a rounding error.)
The segment snapshot of a cold run is the raise of its search at the
shipment that ends the segment; when the search goes on, it is computed
without being applied.

Warm start: a caller that reads only the answer at full mass (the value,
the dual pair, the witness plan) passes ``warm=True``, and the engine
chooses the start.  It starts warm when the masses are equal and a target,
if one is given, equals both; any other run starts cold.  A warm run
starts from Jonker-Volgenant reduction potentials on the scaled costs,
u_i = min_j c_ij and v_j = min_i (c_ij - u_i) (pot X_i = -u_i,
pot Y_j = v_j, pot source = -min u), so every cell and every unsaturated
source arc has reduced cost >= 0.  It ships greedily, row-major, on the
cells these potentials make tight, and the Dijkstra loop runs from that
pseudoflow (Ahuja-Magnanti-Orlin, *Network Flows*, 1993, ch. 9).  The
warm start leaves the sink arcs unpriced (the sink starts at 0, not at a
column's v_j), and the stop rule is exact there for another reason: a
full-mass plan saturates every sink arc, so the sink arcs' costs change
neither which plan is cheapest nor the shipped mass or the min cut.  With
each open sink arc priced tight, each settled column with room ends a
shortest path; the labels of the settled nodes keep every cell's reduced
cost >= 0 and make the path tight.  At full mass every source and sink
arc is saturated, so the final potentials certify the plan as above; a
search that finds no column with room settles all the source reaches, so
the shipped mass and the reachable rows and columns are those of any
maximum flow.  So runs read only for those two, which may end short of full
mass, pass ``warm=True`` too and start warm whenever the masses are equal:
``max_shippable_mass`` and ``kellerer``'s matching runs, whose greedy
start ships a maximal matching before the first search.  In float mode a
warm plan adds its mass up in another order than a cold one, so the
shipped mass may differ in its last bits.  What a warm run does not have
is a profile: the greedy shipments carry no slopes, the warm start prices
no sink arc, and below full mass a residual cycle through the source may
have negative cost, so a short warm plan need not be the cheapest of its
mass.  ``profile_from_run``, ``segment_potentials`` and ``value_from_run``
at any other mass therefore raise ``PreconditionError`` on a warm run.

Re-optimisation across truncation levels: ``truncation_ladder`` answers
P(c /\\ level) for a nondecreasing sequence of finite levels from one
network.  Every cell is finite under a finite level, so the network holds
all of them, and lc also covers the levels' denominators: one call of
``core._ints`` scales every level value to the lcm of the cost's lc and
theirs, and the cost's scaled cells are brought to it.
The ladder is eager: it checks every level, collecting the values for
that call as it goes, before it solves the first, and then returns the
steps of all of them as a list.  The first level is always a warm run,
so a ladder needs marginals of equal mass.  Raising the level only raises
cell costs, so the potentials keep cost(i,j) - u_i - v_j >= 0 on every
cell: they stay feasible.  A cell whose cost rose and that carries flow
would break complementary slackness (its backward step gets a negative
reduced cost), so its flow goes back to its source and sink arcs, and the
Dijkstra loop runs unchanged to full mass (Ahuja-Magnanti-Orlin, ch. 9);
``raise_costs`` says why the source potential needs no reset.  Only the
unshipped mass is re-routed.  On the 20-level sweep over the finite-cost
quantiles of a random 60x60 instance with 30% of its cells forbidden, this
takes 122 Dijkstra searches and unships 137 cells, where fresh warm runs
per level take 970.

Size: a search serves one augmenting path or more (``SolverRun.searches``
counts the searches, ``SolverRun.shipments`` the paths), so the time grows
with the number of searches and paths, not only with the number of cells.
``random_instance(120, 120, 0.3, "random", 0)`` (~10^4 finite cells)
traces its profile along 284 paths in 185 searches, in about 0.17 s in
exact mode and 0.15 s in float mode, on one core of a shared 2-vCPU
machine (CPython 3.11); a warm run of it takes 102 searches and about
0.09 s.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from itertools import islice

from . import modes
from .core import (
    INF,
    CostMatrix,
    Coupling,
    Marginal,
    Record,
    _engine_cells,
    _ints,
    is_inf,
)
from .errors import (
    DimensionMismatchError,
    InfeasibleMassError,
    InputError,
    NegativeWeightError,
    PostconditionError,
    PreconditionError,
)


class PotentialPair(Record):
    """Node potentials (u over X, v over Y) with c(i,j) - u_i - v_j >= 0
    on all finite cells of the instance they certify."""

    u: tuple
    v: tuple


class TransportProfile(Record):
    """Convex piecewise-linear map: shipped mass -> minimum cost.

    ``breakpoints`` starts at (0, 0) and ends at ``max_mass``, the largest
    mass the finite-cost cells can carry.  ``potentials[k]`` certifies
    ``breakpoints[k]``.
    """

    breakpoints: tuple[tuple[object, object], ...]
    potentials: tuple[PotentialPair, ...]

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
        raise InputError(f"mass {modes._text(m)} is negative")
    if not modes.leq(m, bps[-1][0]):
        return INF
    k = bisect_right(bps, m, key=lambda bp: bp[0]) - 1
    if k == len(bps) - 1:
        return bps[-1][1]
    (m0, c0), (m1, c1) = bps[k], bps[k + 1]
    return c0 + modes.div((c1 - c0) * (m - m0), m1 - m0)


class SolverRun(Record):
    """Full record of one parametric solve; frozen like every record, so a
    changed run is built anew, as ``SolverRun(**{**vars(run), name: value})``.

    ``mu`` and ``nu`` are the marginals the run was given, so every reader
    takes the run alone.  ``shipped`` and ``cost`` are unscaled.  The rest
    is kept in engine form (module docstring), with its scales: ``lc`` over
    costs and potentials, ``lw`` over masses.  ``potentials`` holds the final raw
    node potentials times lc (source, X, Y, sink), and ``weights`` holds
    mu's weights, then nu's, times lw.  ``cells`` lists the network's finite
    cells as (i, j, cost times lc), row-major, so that entry k is the
    network's cell k; ``scaled_flows`` maps (i, j) of each cell whose flow
    is above the tolerance, in that order, to its flow times lw.  In float
    mode both scales are 1 and the numbers are the engine's own (a
    potential no search raised stays the int 0 until it is read).
    ``flows`` and ``final_potentials`` unscale on demand, and ``plan``
    builds the coupling on the marginals' spaces.  ``breakpoints`` starts
    at the origin in the mode's zero.
    ``segments`` holds (mass, cost, snapshot) at each breakpoint of the
    profile after (0, 0), one per maximal run of equal slopes.  Mass and
    cost are unscaled; a snapshot is the engine's raw node potentials, still
    scaled by ``lc``, and ``segment_potentials`` unscales it on demand.
    ``searches`` counts the fresh Dijkstra searches (``_Network._search``)
    and ``shipments`` the augmenting paths shipped; a search that resumes
    after a shipment (module docstring) counts once.  ``full_mass`` is None on a run
    that traced the profile from zero flow, and the marginals' mass on a
    warm-started run, which answers only there and has no segments.
    ``reachable_rows`` and ``reachable_cols`` are the source side of a min
    cut, which a run without a target reads off its last search, the one
    that finds no column with room; they are None on a run stopped at its
    target.
    """

    nx: int
    ny: int
    mu: Marginal
    nu: Marginal
    shipped: object
    cost: object
    segments: list[tuple[object, object, tuple]]
    potentials: list
    cells: tuple  # (i, j, cost times lc) on every finite cell, as the cost holds them
    scaled_flows: dict  # (i, j) -> positive flow times lw
    weights: list
    lc: int
    lw: int
    reachable_rows: frozenset | None
    reachable_cols: frozenset | None
    searches: int
    shipments: int
    full_mass: object

    @property
    def breakpoints(self) -> tuple:
        """(0, 0), in the mode's zero, followed by each segment's (mass,
        cost)."""
        zero = modes.coerce(0)
        return ((zero, zero),) + tuple((mass, cost) for mass, cost, _ in self.segments)

    @property
    def final_potentials(self) -> PotentialPair:
        """The final potentials, unscaled."""
        return _potential_pair(self.potentials, self.nx, self.ny, self.lc)

    @property
    def flows(self) -> dict:
        """(i, j) -> positive mass, unscaled."""
        return {ij: modes.div(f, self.lw) for ij, f in self.scaled_flows.items()}

    def plan(self) -> Coupling:
        """The run's plan as a coupling of the unscaled flows on the
        marginals' spaces; its sums are derived from them when read."""
        return Coupling(self.mu.space, self.nu.space, self.flows)

    def segment_potentials(self, k: int) -> PotentialPair:
        """The potentials certifying the profile at the end of segment k."""
        _require_profile(self)
        return _potential_pair(self.segments[k][2], self.nx, self.ny, self.lc)


def _require_profile(run: SolverRun) -> None:
    if run.full_mass is not None:
        raise PreconditionError(
            f"a warm-started run answers only at its full mass {modes._text(run.full_mass)}; "
            "it traced no profile"
        )


def _require_cut(run: SolverRun) -> None:
    if run.reachable_rows is None:
        raise PreconditionError(
            f"a targeted run has no min cut; it stopped at mass {modes._text(run.shipped)}"
        )


def _potential_pair(pots, nx: int, ny: int, scale: int) -> PotentialPair:
    """(u, v) from raw node potentials: u_i = -pot(X_i), v_j = pot(Y_j),
    both divided by scale with ``modes.div``, so that in float mode the
    engine's int 0 gives 0.0.  u_i is computed as 0 - pot(X_i), so that a
    float potential of 0.0 gives 0.0, not -0.0."""
    return PotentialPair(
        u=tuple(modes.div(0 - pots[1 + i], scale) for i in range(nx)),
        v=tuple(modes.div(pots[1 + nx + j], scale) for j in range(ny)),
    )


def _require_instance(c: CostMatrix, mu: Marginal, nu: Marginal) -> None:
    if c.nx != mu.space.size or c.ny != nu.space.size:
        raise DimensionMismatchError("grid does not match the marginals")


class _Network:
    """The network source -> X -> Y -> sink on cells (i, j, cost), with the
    state of a run on it, indexed by cell.  Costs and ``weights`` come
    scaled, the weights as one list, mu's then nu's, as ``core._ints``
    returns them.  The cells come row-major, so a row's cells are
    contiguous.

    Nodes are numbered source 0, X_i 1 + i, Y_j 1 + nx + j and sink
    nx + ny + 1.  Cell k has ``cost[k]``, ``flow[k]`` and its nodes
    ``row_node[k]`` and ``col_node[k]``.  ``row_cells[i]`` is the range of
    row i's cells, and ``col_cells[j]`` the sorted list of column j's cells
    whose flow is above the tolerance, which every shipment keeps current.
    ``row_room`` and ``col_room`` hold what is left on each source arc and
    each sink arc.  A forward step through cell k is uncapped and costs
    ``cost[k]``; a backward one costs ``-cost[k]`` and has room ``flow[k]``.
    ``_search`` runs one search, which stops at each settled column with
    room and may resume after the shipment to it, and ``_raised`` gives the
    potentials its labels raise; ``augment`` ships along the paths it finds
    (module docstring).  ``searches`` counts the searches started and
    ``shipments`` the paths shipped.  Flat lists keep the network
    free of reference cycles, so it is freed as soon as its run returns.
    """

    def __init__(self, nx: int, ny: int, cells: list, weights: list):
        self.nx, self.ny = nx, ny
        self.cost = [cij for _, _, cij in cells]
        self.flow = [0] * len(cells)
        self.row_node = [1 + i for i, _, _ in cells]
        self.col_node = [1 + nx + j for _, j, _ in cells]
        starts = [bisect_left(self.row_node, 1 + i) for i in range(nx + 1)]
        self.row_cells = [range(a, b) for a, b in zip(starts, starts[1:])]
        self.col_cells: list[list[int]] = [[] for _ in range(ny)]
        self.row_room, self.col_room = weights[:nx], weights[nx:]
        self.potentials = [0] * (nx + ny + 2)
        self.shipped = self.total_cost = self.searches = self.shipments = 0
        self.tol = modes.tolerance()

    def warm_start(self) -> None:
        """Reduction potentials and greedy shipments on the fresh network
        (module docstring); a row or column without cells keeps 0."""
        nx, cost, flow, potentials = self.nx, self.cost, self.flow, self.potentials
        row_room, col_room, col_node = self.row_room, self.col_room, self.col_node
        row_min = [min(cost[ks.start : ks.stop], default=0) for ks in self.row_cells]  # u
        col_min: list = [None] * self.ny  # v
        for ks, u in zip(self.row_cells, row_min):
            for k in ks:
                j = col_node[k] - 1 - nx
                if col_min[j] is None or cost[k] - u < col_min[j]:
                    col_min[j] = cost[k] - u
        col_min = [0 if x is None else x for x in col_min]
        potentials[1 : 1 + nx] = [-x for x in row_min]
        potentials[1 + nx : -1] = col_min
        potentials[0] = -min(row_min)
        shipped = total_cost = 0
        for i, (ks, u) in enumerate(zip(self.row_cells, row_min)):
            for k in ks:
                j = col_node[k] - 1 - nx
                if cost[k] - u != col_min[j]:
                    continue
                delta = min(row_room[i], col_room[j])
                if not delta > self.tol:
                    continue
                row_room[i] -= delta
                flow[k] += delta
                col_room[j] -= delta
                self.col_cells[j].append(k)  # cells come in order, each once
                shipped += delta
                total_cost += cost[k] * delta
        self.shipped, self.total_cost = shipped, total_cost

    def _search(self, dist, parent, settled):
        """Fill in the labels, the cell each node was reached through (-1:
        the source) and the settled flags of one search from the source,
        yielding each settled column with room; resumed, the search goes on
        from that column as from any other (module docstring)."""
        nx, cost, tol, potentials = self.nx, self.cost, self.tol, self.potentials
        row_node, col_node, row_cells, col_cells = (
            self.row_node, self.col_node, self.row_cells, self.col_cells
        )
        row_room, col_room = self.row_room, self.col_room
        self.searches += 1
        dist[0] = 0
        heap = [(0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            pu = potentials[u]
            if u > nx:  # a column: back through its cells with flow
                if col_room[u - 1 - nx] > tol:  # the stop rule (module docstring)
                    yield u
                for k in col_cells[u - 1 - nx]:
                    v = row_node[k]
                    if settled[v]:
                        continue
                    nd = d + (pu - cost[k] - potentials[v])
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = k
                        heapq.heappush(heap, (nd, v))
            elif u:  # a row: on through its cells
                for k in row_cells[u - 1]:
                    v = col_node[k]
                    if settled[v]:
                        continue
                    nd = d + (cost[k] + pu - potentials[v])
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = k
                        heapq.heappush(heap, (nd, v))
            else:  # the source: the rows with room
                for v in range(1, 1 + nx):
                    if row_room[v - 1] > tol:
                        dist[v] = nd = d + (pu - potentials[v])
                        heapq.heappush(heap, (nd, v))

    def _raised(self, dist, d):
        """The potentials raised by a search's labels, capped at d.  A
        label below d is a settled node's: an unsettled node is still on
        the heap, at a label of at least d, or unreached, at ``math.inf``."""
        return [p + (dist[v] if dist[v] < d else d) for v, p in enumerate(self.potentials)]

    def augment(self, target=None, segments: list | None = None):
        """Ship along shortest augmenting paths until the shipped mass
        reaches the (scaled) target or, without one, until a search finds
        no column with room.

        ``_search`` yields each settled column with room, and the path to
        it is shipped.  The search then resumes where it stopped when the
        shipment filled only that column's sink arc: the path's first row
        still has room, every cell the path crosses backward still carries
        flow, and the target is not reached.  Otherwise ``_raised`` raises
        the potentials, with the label of the last column shipped to, and a
        fresh search starts (module docstring).

        With ``segments``, append (shipped, total cost, potentials) where
        each maximal run of equal slopes ends, still scaled; a slope within
        the tolerance of the one that opened the run counts as equal.
        Returns the settled flags of the last search (None when none ran)."""
        nx, cost, flow, tol = self.nx, self.cost, self.flow, self.tol
        row_node, col_node, col_cells = self.row_node, self.col_node, self.col_cells
        row_room, col_room, potentials = self.row_room, self.col_room, self.potentials
        n_nodes = len(potentials)
        shipped, total_cost = self.shipped, self.total_cost
        last_sigma = settled = None
        while target is None or target - shipped > tol:
            dist, parent, settled = [math.inf] * n_nodes, [-1] * n_nodes, [False] * n_nodes
            d = None  # the label of the last column shipped to
            for last in self._search(dist, parent, settled):
                d = dist[last]
                # trace the path back from its last column: its true
                # (unreduced) unit cost, its room and the cells it crosses
                # each way
                forward: list[int] = []
                backward: list[int] = []
                sigma, delta, v = 0, col_room[last - 1 - nx], last
                while True:
                    k = parent[v]
                    forward.append(k)
                    sigma += cost[k]
                    v = row_node[k]
                    k = parent[v]
                    if k < 0:  # reached from the source
                        break
                    backward.append(k)
                    sigma -= cost[k]
                    delta = min(delta, flow[k])
                    v = col_node[k]
                delta = min(delta, row_room[v - 1])  # v is the path's first row
                if target is not None:
                    delta = min(delta, target - shipped)
                if not delta > tol:  # a listed cell without flow would ship nothing, forever
                    raise PostconditionError("an augmenting path has no room")
                row_room[v - 1] -= delta
                col_room[last - 1 - nx] -= delta
                for k in forward:  # no flow is negative, so each ends above tol
                    if not flow[k] > tol:
                        insort(col_cells[col_node[k] - 1 - nx], k)
                    flow[k] += delta
                drained = False  # whether a cell crossed backward ran dry
                for k in backward:
                    flow[k] -= delta
                    if not flow[k] > tol:
                        col_cells[col_node[k] - 1 - nx].remove(k)
                        drained = True
                shipped += delta
                total_cost += sigma * delta
                self.shipments += 1
                # the shipment filled only its column's sink arc if nothing
                # else ran dry and the target is still ahead (module docstring)
                resume = (
                    not drained
                    and row_room[v - 1] > tol
                    and (target is None or target - shipped > tol)
                )
                if segments is not None or not resume:
                    pots = self._raised(dist, d)
                    if not resume:
                        potentials[:] = pots
                if segments is not None:
                    point = (shipped, total_cost, tuple(pots))
                    if last_sigma is not None and abs(sigma - last_sigma) <= tol:
                        segments[-1] = point
                    else:
                        segments.append(point)
                        last_sigma = sigma
                if not resume:
                    break
            else:  # no column with room is left
                if d is not None:
                    potentials[:] = self._raised(dist, d)
                break
        self.shipped, self.total_cost = shipped, total_cost
        return settled

    def raise_costs(self, costs: list) -> int:
        """Raise the cells to ``costs`` (none may fall) and unship every
        cell whose cost rose and that carries flow (module docstring).
        Returns the cells unshipped.

        The source potential is not reset, even if a reopened source arc
        then has a negative reduced cost.  The source is settled first
        in every search, and no scanned step enters it.  So its potential
        only shifts every seed label, every distance and every X/Y
        potential update by one constant: no path, value or search count
        changes."""
        nx, cost, flow = self.nx, self.cost, self.flow
        shipped = total_cost = unshipped = 0
        for k, x in enumerate(costs):
            f = flow[k]
            if x != cost[k]:
                cost[k] = x
                if f > self.tol:
                    # back through the cell and the source and sink arcs
                    i, j = self.row_node[k] - 1, self.col_node[k] - 1 - nx
                    self.row_room[i] += f
                    flow[k] -= f
                    self.col_room[j] += f
                    self.col_cells[j].remove(k)
                    unshipped += 1
                    f = 0
            shipped += f
            total_cost += x * f
        self.shipped, self.total_cost = shipped, total_cost
        return unshipped


def _run_ssp(
    c: CostMatrix, mu: Marginal, nu: Marginal, target=None, warm: bool = False
) -> SolverRun:
    """One engine run on (c, mu, nu): to the target mass if one is given,
    else until no augmenting path is left (module docstring).  ``c`` is a
    ``CostMatrix`` or a ``kellerer.CellSet``, the cost 0 on its cells and
    forbidden elsewhere; the run reads only its ``nx``, ``ny`` and its
    scaled finite cells and their scale (``core._engine_cells``).

    ``warm=True`` says that the caller reads only the full-mass answer.
    The engine then starts warm (module docstring) when the masses are
    equal and the target, if there is one, equals both of them; otherwise
    it runs cold, from zero flow, and traces the profile.  A warm run
    answers only at a full mass that both marginals share, and its greedy
    start may ship past a smaller target.
    """
    _require_instance(c, mu, nu)
    warm = warm and modes.eq(mu.mass, nu.mass) and (
        target is None or modes.eq(target, mu.mass) and modes.eq(target, nu.mass)
    )
    nx, ny = c.nx, c.ny
    # costs times lc, as the cost holds them, and masses times lw (module docstring)
    cells, lc = _engine_cells(c)
    masses, lw = _ints([*mu.weights, *nu.weights, 0 if target is None else target])
    weights = masses[:-1]
    target = None if target is None else masses[-1]

    net = _Network(nx, ny, cells, weights)
    segments = None if warm else []
    if warm:
        net.warm_start()
    settled = net.augment(target, segments)

    if target is None:  # the last search missed the sink (module docstring)
        rows = frozenset(i for i in range(nx) if settled[1 + i])
        cols = frozenset(j for j in range(ny) if settled[1 + nx + j])
    else:
        rows = cols = None
    return SolverRun(
        nx=nx,
        ny=ny,
        mu=mu,
        nu=nu,
        shipped=modes.div(net.shipped, lw),
        cost=modes.div(net.total_cost, lc * lw),
        segments=[(modes.div(m, lw), modes.div(x, lc * lw), p) for m, x, p in segments or ()],
        potentials=net.potentials,
        cells=cells,
        scaled_flows={(i, j): f for (i, j, _), f in zip(cells, net.flow) if f > net.tol},
        weights=weights,
        lc=lc,
        lw=lw,
        reachable_rows=rows,
        reachable_cols=cols,
        searches=net.searches,
        shipments=net.shipments,
        full_mass=modes.div(sum(weights[:nx]), lw) if warm else None,
    )


class LadderStep(Record):
    """One level of a truncation ladder: the level (a number or a
    ``CostMatrix``), the value P(c /\\ level), and the fresh Dijkstra
    searches and the cells unshipped that re-optimising to it took."""

    level: object
    value: object
    searches: int
    unshipped: int


def truncation_ladder(
    c: CostMatrix, mu: Marginal, nu: Marginal, levels: Sequence
) -> list[LadderStep]:
    """P(c /\\ level) for each of a nondecreasing sequence of finite
    levels, each a number M >= 0 or a ``CostMatrix`` h, from one network
    (module docstring).

    Every level is checked, nondecreasing cell by cell, before the first
    is solved; then the ladder climbs them all and returns their steps.
    """
    _require_instance(c, mu, nu)
    if not modes.eq(mu.mass, nu.mass):  # the ladder always starts warm
        raise PreconditionError("a warm start needs marginals of equal mass")
    nx, ny = c.nx, c.ny
    values = []  # every level's values, in order
    checked = []  # the levels, each number coerced
    prev = None  # the last level's values row-major, or its number
    for k, level in enumerate(levels):
        if isinstance(level, CostMatrix):
            if (level.nx, level.ny) != (nx, ny):
                raise DimensionMismatchError("cost matrices have different shapes")
            vals = [v for row in level.rows for v in row]
            for n, v in enumerate(vals):
                if is_inf(v):
                    raise InputError(f"level {k} is infinite at {divmod(n, ny)}")
                if prev is not None and v < (prev[n] if isinstance(prev, list) else prev):
                    raise InputError(
                        f"levels decrease at {divmod(n, ny)} between {k - 1} and {k}"
                    )
            values += vals
        else:
            level = vals = modes.coerce(level)
            if prev is not None and level < (max(prev) if isinstance(prev, list) else prev):
                raise InputError("constant levels must be nondecreasing")
            if level < 0:
                raise NegativeWeightError(f"truncation level {modes._text(level)} is negative")
            values.append(level)
        checked.append(level)
        prev = vals
    if not checked:
        return []
    # one lc over the finite costs and every level value (module docstring)
    cells, lc_c = _engine_cells(c)
    scaled, lc = _ints(values, lc_c)
    scaled = iter(scaled)  # each level's values
    base = [INF] * (nx * ny)  # the costs row-major, rescaled to lc
    f = lc // lc_c
    for i, j, x in cells:
        base[i * ny + j] = x * f
    weights, lw = _ints([*mu.weights, *nu.weights])
    full = min(sum(weights[:nx]), sum(weights[nx:]))
    net = None
    steps = []
    for level in checked:
        # min(c, level) per cell, scaled; a cell where c is INF takes the level
        if isinstance(level, CostMatrix):
            vals = list(islice(scaled, len(base)))
        else:
            vals = [next(scaled)] * len(base)
        costs = [m if v is INF or v > m else v for v, m in zip(base, vals)]
        if net is None:
            cells = [(*divmod(n, ny), x) for n, x in enumerate(costs)]
            net = _Network(nx, ny, cells, weights)
            net.warm_start()
            unshipped = 0
        else:
            unshipped = net.raise_costs(costs)
        before = net.searches
        net.augment(full)
        if full - net.shipped > net.tol:
            raise PostconditionError(
                f"a truncated network shipped {modes._text(modes.div(net.shipped, lw))} "
                f"of {modes._text(modes.div(full, lw))}"
            )
        value = modes.div(net.total_cost, lc * lw)
        steps.append(LadderStep(level, value, net.searches - before, unshipped))
    return steps


def profile_from_run(run: SolverRun) -> TransportProfile:
    """The profile an untargeted run traced, with a certificate per
    breakpoint."""
    _require_profile(run)
    zero = modes.coerce(0)
    zero_pots = PotentialPair(u=(zero,) * run.nx, v=(zero,) * run.ny)
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
        raise InputError(f"mass {modes._text(m)} is negative")
    run = _run_ssp(c, mu, nu, target=m, warm=True)
    if not modes.eq(run.shipped, m):
        raise InfeasibleMassError(
            f"requested mass {modes._text(m)} exceeds the largest shippable mass "
            f"{modes._text(run.shipped)}"
        )
    return run.plan()


def max_shippable_mass(c: CostMatrix, mu: Marginal, nu: Marginal):
    """Largest mass a partial coupling on finite cells can carry; a run
    read only for it starts warm when the masses are equal (module
    docstring)."""
    return _run_ssp(c, mu, nu, warm=True).shipped
