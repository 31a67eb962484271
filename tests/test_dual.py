from fractions import Fraction as F

import pytest

import kantgap as kg
from kantgap.errors import NotApplicableError, PreconditionError


@pytest.fixture
def diag3():
    return kg.example_diagonal(3)


def test_dual_value_diag3(diag3):
    c, mu, nu = diag3
    rep = kg.dual_value(c, mu, nu)
    assert rep.value == 1
    assert rep.ray is None
    assert kg.verify_feasible(rep.pair, c).ok
    assert rep.pair.objective == 1


def test_dual_value_zero_cost():
    mu = kg.uniform_marginal(3)
    rep = kg.dual_value(kg.constant_matrix(3, 3, 0), mu, mu)
    assert rep.value == 0
    assert kg.verify_feasible(rep.pair, kg.constant_matrix(3, 3, 0)).ok


def test_dual_value_constant_cost():
    mu = kg.uniform_marginal(2)
    c = kg.constant_matrix(2, 2, F(7, 2))
    rep = kg.dual_value(c, mu, mu)
    assert rep.value == F(7, 2)


def test_dual_unbounded_with_ray():
    mu = kg.uniform_marginal(2)
    c = kg.make_cost_matrix([[1, "inf"], ["inf", "inf"]])
    rep = kg.dual_value(c, mu, mu)
    assert kg.is_inf(rep.value)
    ray = rep.ray
    assert ray is not None
    assert ray.slope > 0
    # the ray keeps feasibility: d_phi + d_psi <= 0 on finite cells
    for i, j, _v in c.finite_cells():
        assert ray.d_phi[i] + ray.d_psi[j] <= 0
    # pushing the base pair along the ray stays feasible and improves
    for t in (1, 10, 100):
        phi = [p + t * d for p, d in zip(rep.pair.phi, ray.d_phi)]
        psi = [p + t * d for p, d in zip(rep.pair.psi, ray.d_psi)]
        moved = kg.make_dual_pair(phi, psi, mu, mu)
        assert kg.verify_feasible(moved, c).ok
        assert moved.objective == rep.pair.objective + t * ray.slope


def test_verify_feasible_trivial(diag3):
    c, mu, nu = diag3
    pair = kg.make_dual_pair([0, 0, 0], [0, 0, 0], mu, nu)
    assert kg.verify_feasible(pair, c).ok


def test_verify_feasible_finds_first_violation(diag3):
    c, mu, nu = diag3
    pair = kg.make_dual_pair([1, 1, 1], [0, 0, 0], mu, nu)
    check = kg.verify_feasible(pair, c)
    assert not check.ok
    assert check.violation == (1, 0)  # first zero-cost cell hit in row-major order
    assert check.excess == 1


def test_verify_feasible_neg_inf_row(diag3):
    c, mu, nu = diag3
    pair = kg.make_dual_pair([kg.NEG_INF, 0, 0], [0, 0, 0], mu, nu)
    assert kg.verify_feasible(pair, c).ok


def test_verify_feasible_neg_inf_column(diag3):
    c, mu, nu = diag3
    # column 0 at -oo waives its cells, where row 1's potential would break
    # phi_1 + psi_0 <= c(1, 0) = 0
    assert not kg.verify_feasible(kg.make_dual_pair([0, 1, 0], [0, 0, 0], mu, nu), c).ok
    pair = kg.make_dual_pair([0, 1, 0], [kg.NEG_INF, 0, 0], mu, nu)
    assert kg.verify_feasible(pair, c).ok


def test_objective_neg_inf_convention(diag3):
    _, mu, nu = diag3
    weightless = kg.make_marginal(mu.space, [F(1, 2), F(1, 2), 0])
    pair = kg.make_dual_pair([0, 0, kg.NEG_INF], [0, 0, 0], weightless, nu)
    assert pair.objective == 0  # (-oo) * 0 = 0
    pair2 = kg.make_dual_pair([0, kg.NEG_INF, 0], [0, 0, 0], weightless, nu)
    assert pair2.objective is kg.NEG_INF


def test_j_functional_equals_objective_for_finite_pairs(diag3):
    c, mu, nu = diag3
    rep = kg.dual_value(c, mu, nu)
    pi = kg.optimal_coupling_at(c, mu, nu, 1)
    assert kg.j_functional(rep.pair, pi, c) == rep.pair.objective


def test_j_functional_neg_inf_on_charged_atom():
    mu = kg.uniform_marginal(2)
    c = kg.constant_matrix(2, 2, 1)
    pair = kg.make_dual_pair([kg.NEG_INF, 0], [0, 0], mu, mu)
    pi = kg.product_coupling(mu, mu)
    assert kg.j_functional(pair, pi, c) is kg.NEG_INF


def test_j_functional_invariant_across_plans():
    for seed in range(15):
        c, mu, nu = kg.random_instance(4, 4, 0, "random", seed)
        rep = kg.dual_value(c, mu, nu)
        pi1 = kg.optimal_coupling_at(c, mu, nu, 1)
        pi2 = kg.product_coupling(mu, nu)
        v1 = kg.j_functional(rep.pair, pi1, c)
        v2 = kg.j_functional(rep.pair, pi2, c)
        assert v1 == v2
        assert v1 <= rep.value


def test_j_functional_requires_finite_cost(diag3):
    c, mu, nu = diag3
    above = kg.make_coupling(mu.space, nu.space, {(0, 2): F(1, 3)})
    pair = kg.make_dual_pair([0, 0, 0], [0, 0, 0], mu, nu)
    with pytest.raises(PreconditionError):
        kg.j_functional(pair, above, c)


def test_weak_duality_and_strong_duality():
    for seed in range(25):
        c, mu, nu = kg.random_instance(4, 3, 0.3, "random", seed)
        p = kg.primal_value(c, mu, nu)
        rep = kg.dual_value(c, mu, nu)
        if kg.is_inf(p):
            assert kg.is_inf(rep.value)
            continue
        assert rep.value == p
        assert kg.verify_feasible(rep.pair, c).ok
        # weak duality against an arbitrary full coupling
        assert rep.pair.objective <= kg.cost_of(c, kg.product_coupling(mu, nu))


def test_complementary_slackness():
    for seed in range(15):
        c, mu, nu = kg.random_instance(4, 4, 0.25, "uniform", seed)
        if kg.is_inf(kg.primal_value(c, mu, nu)):
            continue
        rep = kg.dual_value(c, mu, nu)
        pi = kg.optimal_coupling_at(c, mu, nu, 1)
        for (i, j), _m in pi.entries.items():
            assert rep.pair.phi[i] + rep.pair.psi[j] == c[(i, j)]


def test_zero_weight_atom_potential_lowered_for_feasibility():
    # the weightless row would violate feasibility at potential 0, so it is
    # lowered exactly enough; the objective cannot change
    mu = kg.make_marginal(kg.DiscreteSpace(2), [1, 0])
    nu = kg.make_marginal(kg.DiscreteSpace(2), [F(1, 2), F(1, 2)])
    c = kg.make_cost_matrix([[0, 5], [0, 0]])
    rep = kg.dual_value(c, mu, nu)
    assert rep.value == F(5, 2) == kg.primal_value(c, mu, nu)
    assert kg.verify_feasible(rep.pair, c).ok
    naive = kg.make_dual_pair(
        (rep.pair.phi[0], 0), rep.pair.psi, mu, nu
    )  # convention 0 alone is not feasible here
    assert not kg.verify_feasible(naive, c).ok
    assert rep.pair.phi[1] < 0
    assert naive.objective == rep.pair.objective  # weightless atom, same value


def test_relaxed_dual_diag3(diag3):
    c, mu, nu = diag3
    rep = kg.relaxed_dual_value(c, mu, nu)
    assert rep.value == 1
    assert rep.chargeable == frozenset({(0, 0), (1, 1), (2, 2)})


def test_relaxed_dual_sandwich_random():
    for seed in range(15):
        c, mu, nu = kg.random_instance(3, 3, 0.3, "random", seed)
        p = kg.primal_value(c, mu, nu)
        if kg.is_inf(p):
            with pytest.raises(NotApplicableError):
                kg.relaxed_dual_value(c, mu, nu)
            continue
        d = kg.dual_value(c, mu, nu).value
        rel = kg.relaxed_dual_value(c, mu, nu)
        assert d <= rel.value <= p


def test_relaxed_dual_zero_cost():
    mu = kg.uniform_marginal(2)
    rep = kg.relaxed_dual_value(kg.constant_matrix(2, 2, 0), mu, mu)
    assert rep.value == 0
    assert rep.chargeable == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})


def test_chargeable_cells_full_support_when_costs_finite():
    for seed in range(5):
        c, mu, nu = kg.random_instance(3, 3, 0, "uniform", seed)
        cells = kg.chargeable_cells(c, mu, nu)
        assert cells == frozenset((i, j) for i in range(3) for j in range(3))


def test_attainment_diag3(diag3):
    c, mu, nu = diag3
    rep = kg.attainment_check(c, mu, nu, [1, 2, 3, 4])
    assert rep.attained
    assert rep.level == 3
    assert rep.relaxed == 1
    assert rep.certified_bound >= 3
    # h = (phi + psi)_+ reaches the relaxed value as a truncation ladder
    assert kg.primal_value(kg.truncate_cost(c, rep.h), mu, nu) == 1


def test_attainment_zero_cost():
    mu = kg.uniform_marginal(2)
    c0 = kg.constant_matrix(2, 2, 0)
    rep = kg.attainment_check(c0, mu, mu, [0, 1])
    assert rep.attained and rep.level == 0


def test_attainment_bounded_cost_at_its_bound():
    mu = kg.uniform_marginal(2)
    c = kg.make_cost_matrix([[2, 1], [0, 2]])
    rep = kg.attainment_check(c, mu, mu, [0, 1, 2, 5])
    assert rep.attained
    # truncation at the largest finite entry is the identity
    assert kg.truncate_at(c, 2) == c
    assert rep.level <= 2


def test_attainment_infeasible_instance():
    mu = kg.uniform_marginal(2)
    c = kg.make_cost_matrix([[1, "inf"], ["inf", "inf"]])
    rep = kg.attainment_check(c, mu, mu, [1, 10])
    assert not rep.attained
    assert kg.is_inf(rep.relaxed)


def test_relaxed_primal_dominates_dual_everywhere():
    for seed in range(20):
        c, mu, nu = kg.random_instance(3, 4, 0.5, "random", seed)
        r = kg.relaxed_value(c, mu, nu)
        d = kg.dual_value(c, mu, nu).value
        if kg.is_inf(d):
            assert kg.is_inf(r)
        else:
            assert r >= d


def _per_cell_chargeable(c, mu, nu):
    """The per-cell definition chargeable_cells replaced: a finite cell is
    chargeable when the cheapest full transport under the cost that is 0 on
    it, 1 on the other finite cells and oo elsewhere leaves it some mass."""
    out = set()
    for i, j, _v in c.finite_cells():
        indicator = kg.make_cost_matrix(
            [
                [
                    "inf" if kg.is_inf(c.rows[a][b]) else int((a, b) != (i, j))
                    for b in range(c.ny)
                ]
                for a in range(c.nx)
            ]
        )
        off_mass = kg.primal_value(indicator, mu, nu)
        if not kg.is_inf(off_mass) and off_mass < 1:
            out.add((i, j))
    return frozenset(out)


def _small_instances():
    """Seeded instances up to 4x4, kept small enough for the brute oracle:
    sparse and dense, uniform and random marginals (zero atoms included)."""
    sizes = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]
    for k, (nx, ny) in enumerate(sizes * 8):
        density = (0.0, 0.3, 0.5, 0.7)[k % 4]
        kind = ("uniform", "random")[k // 4 % 2]
        yield kg.random_instance(nx, ny, density, kind, 3000 + k)
    for seed in range(4):
        yield kg.random_instance(3, 4, 0.5, "random", 3100 + seed)
        yield kg.random_instance(4, 4, 0.5, ("uniform", "random")[seed % 2], 3200 + seed)


def test_chargeable_cells_match_brute_oracle():
    zero_atoms = infeasible = 0
    for c, mu, nu in _small_instances():
        cells = kg.chargeable_cells(c, mu, nu)
        assert cells == kg.brute_chargeable(c, mu, nu)
        zero_atoms += 0 in mu.weights + nu.weights
        if kg.is_inf(kg.primal_value(c, mu, nu)):
            infeasible += 1
            assert cells == frozenset()
    assert zero_atoms >= 5 and infeasible >= 5


def test_chargeable_cells_match_per_cell_definition():
    import random

    instances = [kg.example_diagonal(n) for n in (2, 5, 7)]
    instances += [kg.closed_inf_band(n, w) for n, w in ((4, 1), (6, 2), (7, 3))]
    rng = random.Random(77)
    for seed in range(200):
        nx, ny = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.0, 0.3, 0.5, 0.7))
        kind = rng.choice(("uniform", "random"))
        instances.append(kg.random_instance(nx, ny, density, kind, 4000 + seed))
    nonempty = 0
    for c, mu, nu in instances:
        cells = kg.chargeable_cells(c, mu, nu)
        assert cells == _per_cell_chargeable(c, mu, nu)
        nonempty += bool(cells) and cells != frozenset(
            (i, j) for i, j, _v in c.finite_cells()
        )
    # the property is not trivial: many instances have a proper,
    # nonempty chargeable subset of their finite cells
    assert nonempty >= 20


def _linear_scan_level(c, mu, nu, grid):
    relaxed = kg.relaxed_value(c, mu, nu)
    for m in grid:
        if kg.primal_value(kg.truncate_at(c, m), mu, nu) == relaxed:
            return m
    return None


def test_attainment_bisection_matches_linear_scan():
    import random

    rng = random.Random(5)
    cases = {"never": 0, "first": 0, "inside": 0}
    for seed in range(60):
        n = rng.randint(2, 5)
        c, mu, nu = kg.random_instance(n, n, rng.choice((0.0, 0.3)), "random", 5000 + seed)
        if kg.is_inf(kg.primal_value(c, mu, nu)):
            continue
        grid = sorted(F(rng.randint(0, 12), 4) for _ in range(rng.randint(1, 6)))
        level = _linear_scan_level(c, mu, nu, grid)
        rep = kg.attainment_check(c, mu, nu, grid)
        assert rep.level == level and rep.attained == (level is not None)
        if level is None:
            cases["never"] += 1
        elif level == grid[0]:
            cases["first"] += 1
        else:
            cases["inside"] += 1
    assert min(cases.values()) >= 3, cases
