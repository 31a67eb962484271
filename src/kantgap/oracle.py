"""Independent brute-force references used to certify solver outputs.

These share no code with the flow engine or the covers built on it.
``brute_profile`` exhausts the basic sub-coupling plans (spanning-forest
supports) and takes the lower convex envelope of their (mass, cost)
projections, which is the exact mass-to-cost profile; ``brute_primal``
evaluates that envelope, and ``brute_chargeable`` asks it, cell by cell, how
much mass a full plan can put on one cell.  ``brute_cover`` exhausts band covers and
``brute_capacity`` half-integral functions.  All exact, auditable, and meant
for tiny instances only.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import modes
from .core import INF, CostMatrix, Marginal, make_cost_matrix
from .errors import InputError, InstanceTooLargeError, NotSquareError

_PRIMAL_LIMIT = 4
_COVER_LIMIT = 20
_CAPACITY_LIMIT = 10


def _lower_hull(cloud):
    """Minimal breakpoints of the lower convex envelope of (mass, cost)
    points: strictly increasing masses, strictly increasing slopes.  Masses
    within the mode's tolerance of the last kept one are the same mass, and
    the cheaper cost stands for both: in float mode, shipping weights that
    sum to 1 in two orders can end at 0.9999999999999999 and at 1.0.  A
    point within the tolerance below the chord of its neighbours is on it,
    and goes."""
    tol = modes.tolerance()  # a float residual within it is rounding, not mass
    pts = []
    for p in sorted(cloud):
        if pts and p[0] - pts[-1][0] <= tol:
            if p[1] < pts[-1][1]:
                pts[-1] = p
            continue
        pts.append(p)
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            # pop while the middle point does not make a strict upward
            # turn; the cross product over p[0] - ox is the middle point's
            # height below the chord, and within the tolerance is collinear
            cross = (ax - ox) * (p[1] - ay) - (ay - oy) * (p[0] - ax)
            if cross <= tol * (p[0] - ox):
                hull.pop()
            else:
                break
        hull.append(p)
    return tuple(hull)


def _profile_points(c: CostMatrix, mu: Marginal, nu: Marginal):
    """All (mass, cost) pairs of basic sub-coupling plans, hull-pruned.

    A vertex of {plans with row sums <= mu, column sums <= nu} has acyclic
    support with at most one slack node per tree component, so repeatedly
    shipping min(remaining supply, remaining demand) through some finite cell
    reaches every vertex; every search outcome is itself a feasible plan.
    The lower hull of the outcome cloud is therefore the exact mass-to-cost
    profile.  Memoized on the residual marginals, which collapses the
    elimination orders of a common prefix set.
    """
    finite = sorted(
        ((v, i, j) for i, j, v in c.finite_cells()), key=lambda t: (t[0], t[1], t[2])
    )
    memo: dict[tuple, tuple] = {}
    tol = modes.tolerance()  # a float residual within it is rounding, not mass

    def explore(a: tuple, b: tuple):
        key = (a, b)
        cached = memo.get(key)
        if cached is not None:
            return cached
        cloud = [(0, 0)]  # stopping here is itself a basic plan
        for v, i, j in finite:
            ai, bj = a[i], b[j]
            if ai > tol and bj > tol:
                step = ai if ai <= bj else bj
                na = a[:i] + (ai - step,) + a[i + 1 :]
                nb = b[:j] + (bj - step,) + b[j + 1 :]
                for dm, dc in explore(na, nb):
                    cloud.append((step + dm, step * v + dc))
        result = _lower_hull(cloud)
        memo[key] = result
        return result

    return explore(tuple(mu.weights), tuple(nu.weights))


def brute_profile(c: CostMatrix, mu: Marginal, nu: Marginal):
    """Exact breakpoints of the mass-to-cost profile by vertex enumeration."""
    if c.nx > _PRIMAL_LIMIT or c.ny > _PRIMAL_LIMIT:
        raise InstanceTooLargeError(
            f"brute_profile is exhaustive; {c.nx}x{c.ny} exceeds "
            f"{_PRIMAL_LIMIT}x{_PRIMAL_LIMIT}"
        )
    return _cached_profile(c, mu, nu, modes.get_mode())


@lru_cache(maxsize=128)
def _cached_profile(c: CostMatrix, mu: Marginal, nu: Marginal, mode: str):
    # the mode is part of the key: float and exact marginals compare equal
    return _profile_points(c, mu, nu)


def brute_primal(c: CostMatrix, mu: Marginal, nu: Marginal, m):
    """Exact min cost over partial couplings of mass exactly m: the brute
    profile evaluated at m, INF beyond the largest enumerated mass."""
    m = modes.coerce(m)
    if m < 0:
        raise InputError(f"mass {modes._text(m)} is negative")
    hull = brute_profile(c, mu, nu)
    if not modes.leq(m, hull[-1][0]):
        return INF
    for (m0, c0), (m1, c1) in zip(hull, hull[1:]):
        if m <= m1:
            return c0 + modes.div((c1 - c0) * (m - m0), m1 - m0)
    return hull[-1][1]


def brute_chargeable(c: CostMatrix, mu: Marginal, nu: Marginal):
    """Cells that some finite-cost full coupling of the probability
    marginals (mu, nu) charges, certified one cell at a time: the most mass
    such a plan can put on (i, j) is 1 minus the least mass it must put
    elsewhere, which is the brute value at mass 1 of the cost that is 0 on
    (i, j), 1 on the other finite cells and oo on the rest."""
    if c.nx > _PRIMAL_LIMIT or c.ny > _PRIMAL_LIMIT:
        raise InstanceTooLargeError(
            f"brute_chargeable is exhaustive; {c.nx}x{c.ny} exceeds "
            f"{_PRIMAL_LIMIT}x{_PRIMAL_LIMIT}"
        )
    out = set()
    rows = c.rows  # derived on each read: once per call
    for i, j, _v in c.finite_cells():
        one_cell = make_cost_matrix(
            [
                [INF if v is INF else int((a, b) != (i, j)) for b, v in enumerate(row)]
                for a, row in enumerate(rows)
            ]
        )
        off_mass = brute_primal(one_cell, mu, nu, 1)
        if off_mass is not INF and modes.is_positive(1 - off_mass):
            out.add((i, j))
    return frozenset(out)


def brute_cover(L, mu: Marginal, nu: Marginal):
    """Exact minimum of mu(A) + nu(B) over band covers A x Y u X x B of L.

    Enumerates every subset on the smaller side; the other side is then
    forced to the union of uncovered rows (or columns), which is optimal
    because weights are nonnegative.
    """
    nx, ny = L.nx, L.ny
    if nx + ny > _COVER_LIMIT:
        raise InstanceTooLargeError(
            f"brute_cover is exhaustive; nx + ny = {nx + ny} exceeds {_COVER_LIMIT}"
        )
    if nx != mu.space.size or ny != nu.space.size:
        raise InputError("cell set does not match the marginals")

    rows = L.rows  # derived on each read: once per call
    if nx <= ny:
        side_weights = mu.weights
        other_weights = nu.weights
        masks = [
            sum(1 << j for j in range(ny) if rows[i][j]) for i in range(nx)
        ]
        n_side = nx
    else:
        side_weights = nu.weights
        other_weights = mu.weights
        masks = [
            sum(1 << i for i in range(nx) if rows[i][j]) for j in range(ny)
        ]
        n_side = ny

    best = None
    for sub in range(1 << n_side):
        forced = 0
        val = 0
        for k in range(n_side):
            if sub >> k & 1:
                val += side_weights[k]
            else:
                forced |= masks[k]
        t = forced
        while t:
            low = t & -t
            val += other_weights[low.bit_length() - 1]
            t ^= low
        if best is None or val < best:
            best = val
    return best


def brute_capacity(L, lam: Marginal):
    """Exact least integral of f: X -> [0, 1] with f(x) + f(y) >= 1 on the
    square cell set L.  Enumerates g = 2f in {0, 1, 2}^n, which holds an
    optimum because the capacity program's vertices are half-integral."""
    n = L.nx
    if n > _CAPACITY_LIMIT:
        raise InstanceTooLargeError(
            f"brute_capacity is exhaustive; n = {n} exceeds {_CAPACITY_LIMIT}"
        )
    if L.ny != n or lam.space.size != n:
        raise NotSquareError("capacity needs a square cell set and one marginal")
    cells = list(L.cells())
    feasible = (
        g for g in product((0, 1, 2), repeat=n) if all(g[i] + g[j] >= 2 for i, j in cells)
    )
    return modes.div(min(sum(w * k for w, k in zip(lam.weights, g)) for g in feasible), 2)
