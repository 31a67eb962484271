"""The truncation ladder against per-level solves.

``flow.truncation_ladder`` re-optimises P(c /\\ level) from level to level
on one network.  Each value must equal a fresh warm solve of the truncated
matrix (exactly, or within the float tolerance), and on small instances the
brute-force oracle's.  On the 60x60 instance below it must also take fewer
Dijkstra runs than the per-level solves do.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import kantgap as kg
from kantgap import modes
from kantgap.errors import InputError, MassMismatchError, NegativeWeightError
from kantgap.flow import _Network, _run_ssp, truncation_ladder
from kantgap.modes import EXACT, FLOAT, arithmetic
from kantgap.oracle import brute_primal

_settings = settings(max_examples=60, deadline=None)


@st.composite
def raw_instances(draw, max_side=5):
    """Costs as (numerator, denominator) pairs or None for INF, and integer
    weights with zero atoms allowed, so that each mode can build it."""
    nx, ny = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    fraction = st.tuples(st.integers(0, 9), st.integers(1, 3))
    cost = [
        [None if draw(st.integers(0, 3)) == 0 else draw(fraction) for _ in range(ny)]
        for _ in range(nx)
    ]

    def weights(n):
        w = [draw(st.integers(0, 4)) for _ in range(n)]
        if not any(w):
            w[draw(st.integers(0, n - 1))] = 1
        return w

    return cost, weights(nx), weights(ny)


def _build(raw):
    """The raw instance in the current arithmetic mode."""
    cost, wx, wy = raw
    c = kg.make_cost_matrix(
        [[kg.INF if v is None else modes.div(*v) for v in row] for row in cost]
    )

    def marginal(w):
        weights = [modes.div(x, sum(w)) for x in w]
        return kg.make_marginal(kg.DiscreteSpace(len(w)), weights)

    return c, marginal(wx), marginal(wy)


@st.composite
def constant_levels(draw):
    """A nondecreasing list of levels: 0, below and above every cost, and
    repeats."""
    pool = st.one_of(
        st.just((0, 1)),
        st.just((1, 4)),  # below every positive cost with denominator <= 3
        st.just((100, 1)),  # above every cost
        st.tuples(st.integers(0, 12), st.integers(1, 4)),
    )
    levels = draw(st.lists(pool, min_size=1, max_size=7))
    if draw(st.booleans()):
        levels.append(levels[0])  # a repeat
    return sorted(levels, key=lambda p: F(*p))


def _close(a, b):
    return a == b if modes.is_exact() else modes.eq(a, b)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@_settings
@given(raw=raw_instances(), levels=constant_levels())
# level denominators 7 and 11 share no factor with the costs' 2, 3 and 5, so
# one lc scales both; the cost 50/3 lies above every level
@example(
    raw=([[(5, 2), (1, 3), None], [(50, 3), (7, 5), (0, 1)]], [1, 2], [1, 1, 1]),
    levels=[(3, 7), (9, 11), (20, 7), (40, 11)],
)
def test_constant_ladder_matches_per_level_solves(mode, raw, levels):
    with arithmetic(mode):
        c, mu, nu = _build(raw)
        ms = [modes.div(*p) for p in levels]
        steps = list(truncation_ladder(c, mu, nu, ms))
        assert [s.level for s in steps] == ms
        small = c.nx <= 4 and c.ny <= 4
        for m, step in zip(ms, steps):
            truncated = kg.truncate_at(c, m)
            assert _close(step.value, kg.primal_value(truncated, mu, nu))
            if small:
                assert _close(step.value, brute_primal(truncated, mu, nu, 1))
        assert kg.constant_truncation_sweep(c, mu, nu, ms) == [
            (s.level, s.value) for s in steps
        ]


@st.composite
def matrix_ladders(draw):
    """An instance and a ladder of level matrices that rise cell by cell,
    as (numerator, denominator) pairs."""
    raw = draw(raw_instances(max_side=4))
    nx, ny = len(raw[1]), len(raw[2])
    step = st.tuples(st.integers(0, 6), st.integers(1, 2))
    level = [[draw(step) for _ in range(ny)] for _ in range(nx)]
    ladder = [level]
    for _ in range(draw(st.integers(0, 4))):  # add d/e >= 0 to each cell a/b
        rises = [[draw(step) for _ in row] for row in level]
        level = [
            [(a * e + d * b, b * e) for (a, b), (d, e) in zip(row, rise)]
            for row, rise in zip(level, rises)
        ]
        ladder.append(level)
    return raw, ladder


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@_settings
@given(case=matrix_ladders())
def test_matrix_ladder_matches_per_level_solves(mode, case):
    raw, ladder = case
    with arithmetic(mode):
        c, mu, nu = _build(raw)
        hs = [
            kg.make_cost_matrix([[modes.div(*p) for p in row] for row in h]) for h in ladder
        ]
        values = kg.truncation_sweep(c, mu, nu, hs)
        assert [k for k, _ in values] == list(range(len(hs)))
        for (_, value), h in zip(values, hs):
            truncated = kg.truncate_cost(c, h)
            assert _close(value, kg.primal_value(truncated, mu, nu))
            assert _close(value, brute_primal(truncated, mu, nu, 1))


# the 60x60 instance and 20-level sweep over its finite-cost quantiles on
# which the ladder's Dijkstra runs are pinned
def _quantile_sweep():
    c, mu, nu = kg.random_instance(60, 60, 0.3, "random", 3)
    finite = sorted(v for _, _, v in c.finite_cells())
    return c, mu, nu, [finite[k * (len(finite) - 1) // 19] for k in range(20)]


def test_ladder_takes_fewer_dijkstra_runs_than_per_level_solves():
    c, mu, nu, levels = _quantile_sweep()
    runs = [_run_ssp(kg.truncate_at(c, m), mu, nu, warm=True) for m in levels]
    steps = list(truncation_ladder(c, mu, nu, levels))
    assert [s.value for s in steps] == [r.cost for r in runs]
    per_level = sum(r.searches for r in runs)
    ladder = sum(s.searches for s in steps)
    assert (per_level, ladder) == (970, 122)
    # the first level is a warm run, less its last search, which finds no path
    assert steps[0].searches == runs[0].searches - 1
    assert steps[0].unshipped == 0
    assert sum(s.unshipped for s in steps) == 137


def test_ladder_checks_its_levels():
    c, mu, nu = kg.example_diagonal(3)
    with pytest.raises(InputError, match="constant levels must be nondecreasing"):
        truncation_ladder(c, mu, nu, [2, 1])
    with pytest.raises(NegativeWeightError, match="truncation level -1 is negative"):
        truncation_ladder(c, mu, nu, [-1, 2])
    h1 = kg.constant_matrix(3, 3, 2)
    h0 = kg.make_cost_matrix([[2, 2, 2], [2, 1, 2], [2, 2, 2]])
    with pytest.raises(InputError, match=r"levels decrease at \(1, 1\) between 1 and 2"):
        truncation_ladder(c, mu, nu, [1, h1, h0])
    with pytest.raises(InputError, match="constant levels must be nondecreasing"):
        truncation_ladder(c, mu, nu, [h1, 1])
    with pytest.raises(InputError, match=r"level 0 is infinite at \(0, 2\)"):
        truncation_ladder(c, mu, nu, [kg.make_cost_matrix([[1, 1, kg.INF]] * 3)])
    assert list(truncation_ladder(c, mu, nu, [])) == []
    # mixed ladders climb like the matrices they stand for
    steps = list(truncation_ladder(c, mu, nu, [1, h0, h1, 5]))
    assert [s.value for s in steps] == [
        kg.primal_value(kg.truncate_cost(c, h), mu, nu)
        for h in (kg.constant_matrix(3, 3, 1), h0, h1, kg.constant_matrix(3, 3, 5))
    ]


def test_float_marginals_of_different_masses_are_rejected():
    with arithmetic(FLOAT):
        c, _, _ = kg.example_diagonal(2)
        mu = kg.make_marginal(kg.DiscreteSpace(2), [0.5, 0.5000000009])
        nu = kg.make_marginal(kg.DiscreteSpace(2), [0.5, 0.4999999991])
        for solve in (kg.primal_value, kg.dual_value, kg.relaxed_dual_value):
            with pytest.raises(MassMismatchError, match="marginal masses differ"):
                solve(c, mu, nu)
        with pytest.raises(MassMismatchError, match="marginal masses differ"):
            kg.constant_truncation_sweep(c, mu, nu, [1])


def _scannable_steps_reduced_nonnegative(net):
    """Every step a search of the warm network scans has reduced cost >= 0:
    source -> row for the rows with room, row -> column over each row's
    cells and column -> row at -cost over the cells in the columns' lists
    (no sink arc: its searches stop at a column with room)."""
    pots = net.potentials
    steps = [(0, 0, 1 + i) for i in range(net.nx) if net.row_room[i] > 0]
    steps += [(net.cost[k], net.row_node[k], net.col_node[k]) for ks in net.row_cells for k in ks]
    steps += [(-net.cost[k], net.col_node[k], net.row_node[k]) for ks in net.col_cells for k in ks]
    return all(c + pots[u] - pots[v] >= 0 for c, u, v in steps)


def test_raised_costs_keep_the_potentials_feasible():
    """After each raise (which unships the cells whose cost rose) the
    Dijkstra loop runs again: no arc it scans may have negative reduced
    cost, and the climb must end where a fresh warm run of the level ends."""
    rng = random.Random(7)
    for _ in range(200):
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        c = [rng.choice([None, *range(10)]) for _ in range(nx * ny)]  # None: INF
        mu_w = [rng.randint(0, 4) for _ in range(nx)]
        mu_w[0] += 1
        nu_w = [0] * ny
        for _ in range(sum(mu_w)):
            nu_w[rng.randrange(ny)] += 1
        mu, nu = (kg.make_marginal(kg.DiscreteSpace(len(w)), w) for w in (mu_w, nu_w))

        def costs(m):
            return [m if v is None else min(v, m) for v in c]

        levels = sorted(rng.randint(0, 12) for _ in range(5))
        cells = [(*divmod(n, ny), x) for n, x in enumerate(costs(levels[0]))]
        net = _Network(nx, ny, cells, mu_w + nu_w)
        net.warm_start()
        net.augment(sum(mu_w))
        for m in levels[1:]:
            net.raise_costs(costs(m))
            assert _scannable_steps_reduced_nonnegative(net)
            net.augment(sum(mu_w))
            assert net.shipped == sum(mu_w)
            rows = [costs(m)[i * ny : (i + 1) * ny] for i in range(nx)]
            fresh = _run_ssp(kg.make_cost_matrix(rows), mu, nu, warm=True)
            assert net.total_cost == fresh.cost


def _column_lists_hold_the_flows(net, cells):
    """Each column's list is exactly its cells that carry flow (above the
    tolerance), in cell order."""
    expected = [[] for _ in range(net.ny)]
    for k, (_i, j, _c) in enumerate(cells):
        if net.flow[k] > net.tol:
            expected[j].append(k)
    return net.col_cells == expected


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_column_lists_follow_every_shipment(mode):
    """The lists a search scans for a column's backward steps stay equal to
    the cells carrying flow after the warm start, after each augmentation
    (cold and warm, stopped at partial targets) and after each raise."""
    rng = random.Random(13)
    with arithmetic(mode):
        for _ in range(150):
            nx, ny = rng.randint(1, 6), rng.randint(1, 6)
            raw = [rng.choice([None, *range(10)]) for _ in range(nx * ny)]  # None: INF
            mu_w = [modes.div(rng.randint(0, 4), 3) for _ in range(nx)]
            nu_w = [modes.div(rng.randint(0, 4), 3) for _ in range(ny)]
            total = min(sum(mu_w), sum(nu_w))

            def costs(m):
                return [m if v is None else min(v, m) for v in raw]

            levels = sorted(rng.randint(0, 12) for _ in range(4))
            cells = [(*divmod(n, ny), x) for n, x in enumerate(costs(levels[0]))]
            for warm in (False, True):
                net = _Network(nx, ny, cells, mu_w + nu_w)
                if warm:
                    net.warm_start()
                    assert _column_lists_hold_the_flows(net, cells)
                for part in (modes.div(1, 3), modes.div(2, 3), 1):
                    net.augment(total * part)
                    assert _column_lists_hold_the_flows(net, cells)
            for m in levels[1:]:  # the warm network climbs the levels
                net.raise_costs(costs(m))
                assert _column_lists_hold_the_flows(net, cells)
                net.augment(total)
                assert _column_lists_hold_the_flows(net, cells)
