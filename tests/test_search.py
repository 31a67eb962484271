"""The engine's search, ``flow._Network._search``, run to exhaustion.

On seeded small networks, fresh, warm-started and part-way through a
targeted ``augment``, one search with no shipment in between must settle
exactly the nodes the source reaches in the residual graph, each at its
Bellman-Ford distance under the reduced costs.  Its steps are source ->
row with room, row -> column on every cell and column -> row on every cell
with flow; the sink arcs are never scanned.  The search yields the settled
columns with room in the order it settles them, at nondecreasing labels,
and every node's parent is settled before it, through a tight step.
``_raised`` then keeps every residual step's reduced cost >= 0, whatever
label of a yielded column caps it.
"""

import math
import random
from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap.core import INF, _ints
from kantgap.flow import _Network


def _instance(seed):
    """Integer costs 0..3 on sides 1..7, a quarter of the cells forbidden,
    zero-weight atoms allowed and masses that may differ: many ties."""
    rng = random.Random(seed)
    nx, ny = rng.randint(1, 7), rng.randint(1, 7)
    rows = [[rng.randint(0, 3) for _ in range(ny)] for _ in range(nx)]
    for n in rng.sample(range(nx * ny), nx * ny // 4):
        rows[n // ny][n % ny] = INF

    def marginal(n):
        w = [rng.randint(0, 3) for _ in range(n)]
        return kg.make_marginal(kg.DiscreteSpace(n), [F(x, 3) for x in w])

    return kg.make_cost_matrix(rows), marginal(nx), marginal(ny)


def _network(c, mu, nu):
    """The network a run would build on (c, mu, nu), in engine form."""
    cells = list(c.finite_cells())
    costs, _ = _ints([x for _, _, x in cells])
    weights, _ = _ints([*mu.weights, *nu.weights])
    cells = [(i, j, x) for (i, j, _), x in zip(cells, costs)]
    return _Network(c.nx, c.ny, cells, weights)


def _residual_steps(net):
    """(u, v, raw cost) of every step a search may take, read from the
    flows and rooms alone."""
    steps = [(0, 1 + i, 0) for i, room in enumerate(net.row_room) if room > net.tol]
    for k, (cost, flow) in enumerate(zip(net.cost, net.flow)):
        row, col = net.row_node[k], net.col_node[k]
        steps.append((row, col, cost))
        if flow > net.tol:
            steps.append((col, row, -cost))
    return steps


def _bellman_ford(steps, pots, n_nodes):
    """Distances from the source under reduced costs; None if unreached."""
    dist = [None] * n_nodes
    dist[0] = 0
    for _ in range(n_nodes):
        for u, v, cost in steps:
            if dist[u] is not None:
                nd = dist[u] + cost + pots[u] - pots[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
    return dist


class _Settled(list):
    """Settled flags that record the order in which nodes are settled."""

    def __init__(self, flags):
        super().__init__(flags)
        self.order = []

    def __setitem__(self, v, flag):
        self.order.append(v)
        super().__setitem__(v, flag)


def _check_exhausted_search(net):
    pots, n_nodes, nx = list(net.potentials), len(net.potentials), net.nx
    steps = _residual_steps(net)
    # the search's precondition: no step has a negative reduced cost
    assert all(cost + pots[u] - pots[v] >= 0 for u, v, cost in steps)
    expected = _bellman_ford(steps, pots, n_nodes)

    dist, parent = [math.inf] * n_nodes, [-1] * n_nodes
    settled = _Settled([False] * n_nodes)
    before = net.searches
    yielded = list(net._search(dist, parent, settled))
    assert net.searches == before + 1
    assert net.potentials == pots  # a search raises nothing itself

    assert settled == [d is not None for d in expected]
    for v in range(n_nodes):
        if settled[v]:
            assert dist[v] == expected[v]
    # each node is settled once, at a label no lower than the one before
    order = settled.order
    assert sorted(order) == [v for v in range(n_nodes) if settled[v]]
    assert all(dist[u] <= dist[v] for u, v in zip(order, order[1:]))
    assert yielded == [v for v in order if v > nx and net.col_room[v - 1 - nx] > net.tol]

    for v in range(1, n_nodes - 1):
        if not settled[v]:
            continue
        k = parent[v]
        if v > nx:  # a column, reached forward through cell k
            assert net.col_node[k] == v
            u, cost = net.row_node[k], net.cost[k]
        elif k < 0:  # a row, reached from the source
            assert net.row_room[v - 1] > net.tol
            u, cost = 0, 0
        else:  # a row, reached backward through cell k
            assert net.row_node[k] == v and net.flow[k] > net.tol
            u, cost = net.col_node[k], -net.cost[k]
        assert order.index(u) < order.index(v)
        assert dist[v] == dist[u] + cost + pots[u] - pots[v]

    for d in {dist[v] for v in yielded}:
        raised = net._raised(dist, settled, d)
        assert all(cost + raised[u] - raised[v] >= 0 for u, v, cost in steps)
    return len(yielded)


@pytest.mark.parametrize("start", ["fresh", "warm", "targeted"])
def test_a_search_settles_the_reachable_nodes_at_their_distances(start):
    yielded = 0
    for seed in range(150):
        c, mu, nu = _instance(seed)
        net = _network(c, mu, nu)
        if start == "warm":
            net.warm_start()
        elif start == "targeted":
            full = min(sum(net.row_room), sum(net.col_room))
            if seed % 2:
                net.warm_start()
            net.augment(full // 2)
        yielded += _check_exhausted_search(net)
    assert yielded >= 50  # 404 fresh, 70 warm and 193 targeted


def test_a_search_after_a_full_run_finds_no_column_with_room():
    """A run without a target ends with a search that yields nothing; the
    same search, run again, settles the source side of the min cut."""
    for seed in range(60):
        c, mu, nu = _instance(seed)
        net = _network(c, mu, nu)
        settled = net.augment()
        assert _check_exhausted_search(net) == 0
        n_nodes = len(net.potentials)
        again = [False] * n_nodes
        list(net._search([math.inf] * n_nodes, [-1] * n_nodes, again))
        assert again == settled
