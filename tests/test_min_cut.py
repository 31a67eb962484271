"""The engine's min cut against an independent residual search.

An untargeted run reads ``reachable_rows`` and ``reachable_cols`` off its
last search, the one that missed the sink.  Here the residual graph is
rebuilt from the run's cell flows, the marginals and the finite cells alone
and searched breadth-first; both must reach the same rows and columns.  A
run stopped at its target has no cut, and the readers of a cut say so.
"""

from collections import deque
from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap import modes
from kantgap.dual import dual_from_run
from kantgap.errors import PreconditionError
from kantgap.flow import _run_ssp
from kantgap.kellerer import cover_from_run, decompose_from_run
from kantgap.modes import EXACT, FLOAT, arithmetic

SOURCE, SINK = ("source",), ("sink",)


def _instances():
    """Seeded random instances, feasible and infeasible; random marginals
    carry zero-weight atoms."""
    for seed in range(150):
        nx, ny = 1 + seed % 7, 1 + (seed // 7) % 6
        kind = "uniform" if seed % 5 == 0 else "random"
        yield kg.random_instance(nx, ny, (0, 0.3, 0.6)[seed % 3], kind, seed)


def _residual_reach(c, mu, nu, flows):
    """The nodes a breadth-first search from the source reaches through
    arcs of positive residual capacity (beyond the mode's tolerance)."""
    tol = modes.tolerance()
    out = [sum((m for (i, _), m in flows.items() if i == r), 0) for r in range(c.nx)]
    into = [sum((m for (_, j), m in flows.items() if j == s), 0) for s in range(c.ny)]

    def arcs(node):
        if node == SOURCE:
            return [("x", i) for i in range(c.nx) if mu.weights[i] - out[i] > tol]
        if node == SINK:
            return [("y", j) for j in range(c.ny) if into[j] > tol]
        side, k = node
        if side == "x":  # cell arcs are uncapped; the source arc back if used
            heads = [("y", j) for j in range(c.ny) if not kg.is_inf(c[k, j])]
            return heads + ([SOURCE] if out[k] > tol else [])
        heads = [("x", i) for i in range(c.nx) if flows.get((i, k), 0) > tol]
        return heads + ([SINK] if nu.weights[k] - into[k] > tol else [])

    seen = {SOURCE}
    queue = deque([SOURCE])
    while queue:
        for v in arcs(queue.popleft()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_cut_matches_an_independent_residual_search(mode, warm):
    feasible = infeasible = zero_atoms = 0
    with arithmetic(mode):
        for c, mu, nu in _instances():
            run = _run_ssp(c, mu, nu, warm=warm)
            seen = _residual_reach(c, mu, nu, run.flows)
            assert SINK not in seen  # the run shipped a maximum flow
            assert run.reachable_rows == frozenset(i for i in range(c.nx) if ("x", i) in seen)
            assert run.reachable_cols == frozenset(j for j in range(c.ny) if ("y", j) in seen)
            if modes.eq(run.shipped, 1):
                feasible += 1
            else:
                infeasible += 1
            zero_atoms += 0 in mu.weights + nu.weights
    assert feasible >= 40 and infeasible >= 40 and zero_atoms >= 40


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_targeted_run_has_no_cut(mode):
    with arithmetic(mode):
        for c, mu, nu in list(_instances())[:30]:
            runs = [_run_ssp(c, mu, nu, target=modes.coerce(t)) for t in (0, F(1, 2), 1, 2)]
            runs.append(_run_ssp(c, mu, nu, target=mu.mass, warm=True))
            for run in runs:
                assert run.reachable_rows is None and run.reachable_cols is None


def _half_matching_run():
    """The diagonal cell set of ``example_diagonal(3)`` and a matching run
    on it stopped at half of full mass."""
    _c, mu, nu = kg.example_diagonal(3)
    L = kg.cellset_from_pairs(3, 3, [(i, i) for i in range(3)])
    run = _run_ssp(L, mu, nu, target=modes.coerce(F(1, 2)))
    assert modes.eq(run.shipped, F(1, 2))
    return L, run


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_a_targeted_run_gives_no_dual_ray(mode):
    with arithmetic(mode):
        run = _run_ssp(*kg.example_diagonal(3), target=modes.coerce(F(1, 2)))
        assert modes.eq(run.shipped, F(1, 2))
        with pytest.raises(PreconditionError, match="a targeted run has no min cut"):
            dual_from_run(run)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_a_targeted_run_gives_no_cover(mode):
    with arithmetic(mode):
        L, run = _half_matching_run()
        with pytest.raises(PreconditionError, match="a targeted run has no min cut"):
            cover_from_run(run, L)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_a_targeted_run_still_decomposes(mode):
    """The decomposition reads only the shipped mass and the marginals, so
    it answers on a targeted run as on an untargeted one."""
    with arithmetic(mode):
        L, run = _half_matching_run()
        assert decompose_from_run(run, L) == kg.kellerer_decompose(L, run.mu, run.nu)
