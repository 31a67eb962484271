import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

import kantgap as kg
from kantgap import flow, modes
from kantgap.errors import (
    DimensionMismatchError,
    InfeasibleMassError,
    InputError,
    PostconditionError,
)
from kantgap.flow import PotentialPair, TransportProfile, _Network, _run_ssp, profile_from_run
from kantgap.modes import EXACT, FLOAT, arithmetic


@pytest.fixture
def diag3():
    return kg.example_diagonal(3)


def test_profile_diagonal3_breakpoints(diag3):
    c, mu, nu = diag3
    prof = kg.solve_profile(c, mu, nu)
    assert prof.breakpoints == ((0, 0), (F(2, 3), 0), (1, 1))
    assert prof.max_mass == 1
    # the same piecewise-linear function comes out of the exhaustive search
    assert kg.brute_profile(c, mu, nu) == prof.breakpoints


def test_profile_zero_cost():
    c = kg.constant_matrix(2, 3, 0)
    mu = kg.uniform_marginal(2)
    nu = kg.make_marginal(kg.DiscreteSpace(3), [F(1, 4), F(1, 4), F(1, 4)])
    prof = kg.solve_profile(c, mu, nu)
    assert prof.max_mass == F(3, 4)
    assert all(cost == 0 for _, cost in prof.breakpoints)


def test_profile_all_infinite():
    c = kg.make_cost_matrix([["inf", "inf"], ["inf", "inf"]])
    mu = kg.uniform_marginal(2)
    prof = kg.solve_profile(c, mu, mu)
    assert prof.max_mass == 0
    assert prof.breakpoints == ((0, 0),)


def test_evaluate_profile_points(diag3):
    c, mu, nu = diag3
    prof = kg.solve_profile(c, mu, nu)
    assert kg.evaluate_profile(prof, F(2, 3)) == 0
    assert kg.evaluate_profile(prof, 1) == 1
    assert kg.is_inf(kg.evaluate_profile(prof, F(101, 100)))
    # interpolation agrees with the oracle inside a segment
    assert kg.evaluate_profile(prof, F(5, 6)) == F(1, 2)
    assert kg.brute_primal(c, mu, nu, F(5, 6)) == F(1, 2)


def test_evaluate_profile_negative_mass(diag3):
    c, mu, nu = diag3
    prof = kg.solve_profile(c, mu, nu)
    with pytest.raises(InputError):
        kg.evaluate_profile(prof, -1)


def test_optimal_coupling_empty(diag3):
    c, mu, nu = diag3
    assert kg.optimal_coupling_at(c, mu, nu, 0).mass == 0


def test_optimal_coupling_below_diagonal(diag3):
    c, mu, nu = diag3
    pi = kg.optimal_coupling_at(c, mu, nu, F(2, 3))
    assert pi.mass == F(2, 3)
    assert kg.cost_of(c, pi) == 0
    assert all(j < i for (i, j) in pi.entries)


def test_optimal_coupling_full_is_diagonal(diag3):
    c, mu, nu = diag3
    pi = kg.optimal_coupling_at(c, mu, nu, 1)
    assert dict(pi.entries) == {(i, i): F(1, 3) for i in range(3)}
    assert kg.cost_of(c, pi) == 1


def test_optimal_coupling_infeasible_mass(diag3):
    c, mu, nu = diag3
    with pytest.raises(InfeasibleMassError):
        kg.optimal_coupling_at(c, mu, nu, F(11, 10))


def test_profile_convexity_and_certificates():
    for seed in range(25):
        c, mu, nu = kg.random_instance(4, 4, 0.3, "random", seed)
        prof = kg.solve_profile(c, mu, nu)
        masses = [m for m, _ in prof.breakpoints]
        costs = [v for _, v in prof.breakpoints]
        slopes = [
            (c1 - c0) / (m1 - m0)
            for (m0, c0), (m1, c1) in zip(prof.breakpoints, prof.breakpoints[1:])
        ]
        assert all(s0 <= s1 for s0, s1 in zip(slopes, slopes[1:]))
        assert all(a < b for a, b in zip(masses, masses[1:]))
        assert all(a <= b for a, b in zip(costs, costs[1:]))
        for (bp_mass, bp_cost), pots in zip(prof.breakpoints, prof.potentials):
            # dual feasibility on every finite cell, at every breakpoint
            for i, j, v in c.finite_cells():
                assert pots.u[i] + pots.v[j] <= v
            # complementary slackness for the plan shipped at this mass
            pi = kg.optimal_coupling_at(c, mu, nu, bp_mass)
            assert kg.cost_of(c, pi) == bp_cost
            for (i, j), _m in pi.entries.items():
                assert pots.u[i] + pots.v[j] == c[(i, j)]


def test_monotone_restriction_never_cheaper():
    # forbidding one finite cell can only push the profile up
    for seed in range(12):
        c, mu, nu = kg.random_instance(3, 4, 0.2, "uniform", seed)
        finite = list(c.finite_cells())
        if not finite:
            continue
        i0, j0, _ = finite[seed % len(finite)]
        rows = [
            [kg.INF if (i, j) == (i0, j0) else c[(i, j)] for j in range(c.ny)]
            for i in range(c.nx)
        ]
        restricted = kg.make_cost_matrix(rows)
        p0 = kg.solve_profile(c, mu, nu)
        p1 = kg.solve_profile(restricted, mu, nu)
        assert p1.max_mass <= p0.max_mass
        grid = sorted({m for m, _ in p0.breakpoints} | {m for m, _ in p1.breakpoints})
        for m in grid:
            v0 = kg.evaluate_profile(p0, m)
            v1 = kg.evaluate_profile(p1, m)
            if kg.is_inf(v0):
                assert kg.is_inf(v1)
            else:
                assert kg.is_inf(v1) or v0 <= v1


def test_solver_determinism(diag3):
    c, mu, nu = diag3
    a = kg.solve_profile(c, mu, nu)
    b = kg.solve_profile(c, mu, nu)
    assert a == b
    pa = kg.optimal_coupling_at(c, mu, nu, F(1, 2))
    pb = kg.optimal_coupling_at(c, mu, nu, F(1, 2))
    assert pa == pb


def test_zero_weight_atoms_keep_indices():
    mu = kg.make_marginal(kg.DiscreteSpace(3), [F(1, 2), 0, F(1, 2)])
    nu = kg.make_marginal(kg.DiscreteSpace(3), [0, F(1, 2), F(1, 2)])
    c = kg.constant_matrix(3, 3, 1)
    prof = kg.solve_profile(c, mu, nu)
    assert prof.max_mass == 1
    pi = kg.optimal_coupling_at(c, mu, nu, 1)
    assert all(i != 1 and j != 0 for (i, j) in pi.entries)


def test_max_shippable_mass_band():
    c, mu, nu = kg.closed_inf_band(4, 3)
    # only the two far corners are finite
    assert kg.max_shippable_mass(c, mu, nu) == F(1, 2)


def _primes(count):
    found = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def _prime_denominator_instance(n, seed, inf_density=0.25):
    """Every finite cost and every weight has its own prime in its
    denominator, so the engine's common denominators are products of up to
    n*n + 2n primes."""
    rng = random.Random(seed)
    primes = iter(_primes(n * n + 2 * n))

    def odd_fraction(top):
        # k/p with p not dividing k, below top
        p = next(primes)
        return F(rng.randrange(top) * p + rng.randrange(1, p), p)

    rows = [
        [kg.INF if rng.random() < inf_density else odd_fraction(3) for _ in range(n)]
        for _ in range(n)
    ]
    weights = [odd_fraction(1) / n for _ in range(2 * n)]
    space = kg.DiscreteSpace(n)
    return (
        kg.make_cost_matrix(rows),
        kg.make_marginal(space, weights[:n]),
        kg.make_marginal(space, weights[n:]),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prime_denominators_match_brute_profile(n):
    for seed in range(4):
        c, mu, nu = _prime_denominator_instance(n, seed)
        assert kg.solve_profile(c, mu, nu).breakpoints == kg.brute_profile(c, mu, nu)


def test_prime_denominators_certificates_n12():
    c, mu, nu = _prime_denominator_instance(12, 5)
    prof = kg.solve_profile(c, mu, nu)
    assert len(prof.breakpoints) > 2
    for (mass, cost), pots in zip(prof.breakpoints, prof.potentials):
        for i, j, v in c.finite_cells():
            assert pots.u[i] + pots.v[j] <= v
        pi = kg.optimal_coupling_at(c, mu, nu, mass)
        assert pi.mass == mass
        assert kg.cost_of(c, pi) == cost
        for i, j in pi.entries:
            assert pots.u[i] + pots.v[j] == c[(i, j)]


def test_optimal_coupling_at_target_with_a_new_denominator(diag3):
    c, mu, nu = diag3
    pi = kg.optimal_coupling_at(c, mu, nu, F(1, 7))
    assert pi.mass == F(1, 7)
    assert kg.cost_of(c, pi) == kg.brute_primal(c, mu, nu, F(1, 7)) == 0
    pi = kg.optimal_coupling_at(c, mu, nu, F(5, 7))
    assert pi.mass == F(5, 7)
    assert kg.cost_of(c, pi) == kg.brute_primal(c, mu, nu, F(5, 7)) == F(1, 7)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_segments_are_the_profile_breakpoints(mode):
    """A cold run records (mass, cost) at each breakpoint after (0, 0); the
    last one is where the run ended."""
    with arithmetic(mode):
        for seed in range(20):
            c, mu, nu = kg.random_instance(5, 6, 0.3, "random", seed)
            run = _run_ssp(c, mu, nu)
            assert profile_from_run(run).breakpoints == ((0, 0),) + tuple(
                (m, x) for m, x, _ in run.segments
            )
            if run.segments:
                assert run.segments[-1][:2] == (run.shipped, run.cost)


def test_float_rounding_does_not_split_a_segment():
    """Two paths whose float unit costs differ by a rounding error extend
    one segment, as their exact costs do."""
    inst = kg.random_instance(7, 8, 0.3, "random", 26)
    assert len(kg.solve_profile(*inst).breakpoints) == 10
    with arithmetic(FLOAT):
        bps = kg.solve_profile(*kg.random_instance(7, 8, 0.3, "random", 26)).breakpoints
    assert len(bps) == 10
    slopes = [(c1 - c0) / (m1 - m0) for (m0, c0), (m1, c1) in zip(bps, bps[1:])]
    assert all(b - a > 1e-9 for a, b in zip(slopes, slopes[1:]))


_PAIR = PotentialPair(u=(0,), v=(0,))


@pytest.mark.parametrize(
    "breakpoints,n_pairs,error,message",
    [
        (((F(1, 2), 0), (1, 1)), 2, InputError, "profile must start at"),
        (((0, 0), (1, 1)), 1, DimensionMismatchError, "one potential pair per breakpoint"),
        (((0, 0), (1, 1), (1, 2)), 3, InputError, "masses must strictly increase"),
        (((0, 0), (F(1, 2), 2), (1, 1)), 3, InputError, "costs must be nondecreasing"),
        (((0, 0), (F(1, 2), 2), (1, 3)), 3, InputError, "slopes must be nondecreasing"),
    ],
    ids=["origin", "pairs", "masses", "costs", "slopes"],
)
def test_a_malformed_profile_is_rejected(breakpoints, n_pairs, error, message):
    with pytest.raises(error, match=message):
        TransportProfile(breakpoints=breakpoints, potentials=(_PAIR,) * n_pairs)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_a_path_without_room_raises(mode):
    """A column list that holds a cell without flow gives a search a path
    back through that cell with no room: shipping nothing along it would
    repeat forever, so ``augment`` raises instead."""
    with arithmetic(mode):
        one, zero = modes.coerce(1), modes.coerce(0)
        # X_0 reaches only Y_0, which is full; Y_0's list wrongly offers the
        # unshipped cell (1, 0) back to X_1, whose cell (1, 1) reaches Y_1
        cells = [(0, 0, zero), (1, 0, zero), (1, 1, zero)]
        net = _Network(2, 2, cells, [one, zero, zero, one])
        net.col_cells[0].append(1)  # cell (1, 0)
        with pytest.raises(PostconditionError, match="an augmenting path has no room"):
            net.augment()
        assert net.shipped == 0


def _run_numbers(run):
    yield run.shipped
    yield run.cost
    for k, (mass, cost, _snapshot) in enumerate(run.segments):
        pots = run.segment_potentials(k)
        yield from (mass, cost, *pots.u, *pots.v)
    yield from run.final_potentials.u
    yield from run.final_potentials.v
    yield from run.flows.values()


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_engine_numbers_stay_in_mode(mode):
    with arithmetic(mode):
        for seed in range(20):
            c, mu, nu = kg.random_instance(5, 6, 0.3, "random", seed)
            targets = (None, modes.coerce(F(1, 7)), modes.coerce(F(1, 2)))
            runs = [_run_ssp(c, mu, nu, target) for target in targets]
            runs.append(_run_ssp(c, mu, nu, warm=True))
            for run in runs:
                for x in _run_numbers(run):
                    if mode == EXACT:
                        assert type(x) in (int, F)
                    else:
                        # a row potential no path has raised keeps the
                        # engine's initial int 0, as floats would print -0.0
                        assert type(x) is float or (type(x) is int and x == 0)


def test_objects_from_float_mode_rejected_in_exact_mode():
    with arithmetic(FLOAT):
        c, mu, nu = kg.example_diagonal(3)
    with pytest.raises(InputError):
        kg.solve_profile(c, mu, nu)


def test_the_solvers_never_branch_on_the_mode():
    # outside modes, only core._ints and core._engine_cells read the mode:
    # numbers take engine form there, and every other mode decision is left
    # to modes.  A name, an attribute or an import of is_exact counts, under
    # the top-level function or class it sits in (None at module level).
    readers = set()
    for path in Path(flow.__file__).parent.glob("*.py"):
        if path.name == "modes.py":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                names = (getattr(node, key, None) for key in ("id", "attr", "name"))
                if "is_exact" in names:
                    readers.add((path.name, getattr(top, "name", None)))
    assert readers == {("core.py", "_ints"), ("core.py", "_engine_cells")}
