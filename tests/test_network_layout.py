"""The cell-indexed network conserves mass at every stage of every run.

Each network a run builds is checked after it is laid out, after its warm
start, after each augmentation and after each raise of a ladder: every
row's room plus the flows of its cells equals the row's scaled weight, and
every column's likewise, with no room and no flow below zero.  A run's
``scaled_flows`` are exactly its network's cells with flow above the
tolerance, in cell order.
"""

from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import kantgap as kg
from kantgap import flow, modes
from kantgap.flow import _run_ssp, truncation_ladder
from kantgap.modes import EXACT, FLOAT, arithmetic


def _check_conservation(net, weights):
    nx, n_cells = net.nx, len(net.flow)
    assert [k for ks in net.row_cells for k in ks] == list(range(n_cells))
    assert all(net.row_node[k] == 1 + i for i, ks in enumerate(net.row_cells) for k in ks)
    col_flows = [[] for _ in range(net.ny)]
    for k, f in enumerate(net.flow):
        col_flows[net.col_node[k] - 1 - nx].append(f)
    row_flows = [[net.flow[k] for k in ks] for ks in net.row_cells]
    rooms = net.row_room + net.col_room
    assert all(x >= 0 for x in net.flow + rooms)
    for room, flows, w in zip(rooms, row_flows + col_flows, weights, strict=True):
        assert modes.eq(room + sum(flows, 0), w)


def _checked_networks():
    """A ``_Network`` that checks conservation after every stage, and the
    list of the networks it makes."""
    made = []

    class Checked(flow._Network):
        def __init__(self, nx, ny, cells, weights):
            super().__init__(nx, ny, cells, weights)
            self.scaled_weights = list(weights)
            made.append(self)
            _check_conservation(self, self.scaled_weights)

        def warm_start(self):
            super().warm_start()
            _check_conservation(self, self.scaled_weights)

        def augment(self, *args):
            settled = super().augment(*args)
            _check_conservation(self, self.scaled_weights)
            return settled

        def raise_costs(self, costs):
            unshipped = super().raise_costs(costs)
            _check_conservation(self, self.scaled_weights)
            return unshipped

    return Checked, made


@st.composite
def raw_instances(draw):
    """Cost tokens ("inf" for a forbidden cell) and integer weights, to be
    read in either mode; nu has mu's mass when ``equal`` is drawn."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    token = st.one_of(
        st.just("inf"), st.builds("{}/{}".format, st.integers(0, 9), st.integers(1, 3))
    )
    rows = [[draw(token) for _ in range(ny)] for _ in range(nx)]
    mu_w = draw(st.lists(st.integers(0, 4), min_size=nx, max_size=nx))
    if draw(st.booleans()):  # equal masses: sum(mu_w) units spread over Y
        nu_w = [0] * ny
        for j in draw(st.lists(st.integers(0, ny - 1), min_size=sum(mu_w), max_size=sum(mu_w))):
            nu_w[j] += 1
    else:
        nu_w = draw(st.lists(st.integers(0, 4), min_size=ny, max_size=ny))
    levels = sorted(draw(st.lists(st.integers(0, 12), min_size=1, max_size=4)))
    return rows, mu_w, nu_w, levels, draw(st.integers(0, 4))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@settings(max_examples=60, deadline=None)
@given(raw=raw_instances())
def test_every_stage_of_every_run_conserves_mass(mode, raw):
    rows, mu_w, nu_w, levels, quarters = raw
    with arithmetic(mode):
        c = kg.make_cost_matrix(rows)
        mu, nu = (
            kg.make_marginal(kg.DiscreteSpace(len(w)), [f"{x}/3" for x in w])
            for w in (mu_w, nu_w)
        )
        target = modes.coerce(F(quarters, 4)) * min(mu.mass, nu.mass)
        runs = [
            {},  # cold
            {"warm": True},  # warm when the masses are equal
            {"target": target},
            {"target": mu.mass, "warm": True},
        ]
        Checked, made = _checked_networks()
        with mock.patch.object(flow, "_Network", Checked):
            for kwargs in runs:
                made.clear()
                run = _run_ssp(c, mu, nu, **kwargs)
                (net,) = made
                assert net.scaled_weights == run.weights
                assert list(run.scaled_flows.items()) == [
                    ((i, j), f) for (i, j, _), f in zip(run.cells, net.flow) if f > net.tol
                ]
            if modes.eq(mu.mass, nu.mass):
                made.clear()
                steps = truncation_ladder(c, mu, nu, [modes.coerce(m) for m in levels])
                assert len(steps) == len(levels) and len(made) == 1
