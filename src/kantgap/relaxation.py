"""The two coupling surgeries behind the relaxation arguments.

``shrink_to_partial`` multiplies a plan with marginals (f mu, g nu) by the
density 1 / ((1 + |f(x) - 1|)(1 + |g(y) - 1|)).  The payoff is a plan that is
dominated by the original, has sub-(mu, nu) marginals, and keeps at least the
Jensen share of the mass: F(a, b) = 1 / ((1 + a)(1 + b)) is convex, so

    |shrunk| >= |pi| * F(a_pi, b_pi)

with a_pi, b_pi the plan-averaged deviations of f and g from 1.  When f <= 1
and g <= 1 (the sub-marginal case the relaxation argument runs through), the
plan-averaged deviations are dominated by the mu- and nu-averaged ones, so
the simpler bound |shrunk| >= |pi| * F(|f-1|_L1 / |pi|, |g-1|_L1 / |pi|)
holds as well.  For densities above 1 only the plan-averaged form is valid;
randomized search produces strict counterexamples to the other one.

``complete_partial`` fills the deficits of a partial plan with the rescaled
product of the two deficit marginals, yielding an exact full coupling; under
a cellwise cost bound M the completed cost exceeds the partial cost by at
most (deficit mass) * M.

These bounds are *executed*, not documented: every call re-verifies them and
raises ``PostconditionError`` on failure, so the proof steps stay checked.
"""

from __future__ import annotations

from . import modes
from .core import (
    Coupling,
    CostMatrix,
    Marginal,
    add_couplings,
    cost_of,
    coupling_marginals,
    dominates,
    is_inf,
    make_coupling,
    make_marginal,
    marginals_equal,
    product_coupling,
)
from .errors import (
    DeficitMismatchError,
    DensityUndefinedError,
    DimensionMismatchError,
    InputError,
    PostconditionError,
)


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise PostconditionError(msg)


def _densities(sums: Marginal, ref: Marginal, side: str, name: str) -> list:
    """The density of each plan marginal ``sums`` against ``ref``, atom by
    atom: 1 on an atom ``ref`` does not weigh, which the plan must not
    charge."""
    out = []
    for i, w in enumerate(ref.weights):
        if w == 0:
            if modes.is_positive(sums.weights[i]):
                raise DensityUndefinedError(
                    f"plan charges atom {i} of {side} but {name} gives it weight 0"
                )
            out.append(1)
        else:
            out.append(modes.div(sums.weights[i], w))
    return out


def _deficit(ref: Marginal, sums: Marginal) -> Marginal:
    """What ``ref`` has left over ``sums``, atom by atom, floored at 0."""
    return make_marginal(
        ref.space, tuple(max(w - s, 0) for w, s in zip(ref.weights, sums.weights))
    )


def shrink_to_partial(pi: Coupling, mu: Marginal, nu: Marginal) -> Coupling:
    """Jensen shrink of a plan whose marginals are (f mu, g nu).

    Densities f, g are recovered from the plan itself (atoms with zero
    reference weight must carry no mass).  The returned plan is dominated by
    ``pi``, has marginals below (mu, nu), and satisfies the Jensen mass bound
    above; all three are asserted.
    """
    if (pi.space_x.size, pi.space_y.size) != (mu.space.size, nu.space.size):
        raise DimensionMismatchError("plan and marginals live on different grids")
    rows, cols = coupling_marginals(pi)
    f = _densities(rows, mu, "X", "mu")
    g = _densities(cols, nu, "Y", "nu")

    row_factor = [modes.div(1, 1 + abs(fi - 1)) for fi in f]
    col_factor = [modes.div(1, 1 + abs(gj - 1)) for gj in g]
    shrunk = make_coupling(
        pi.space_x,
        pi.space_y,
        {(i, j): m * row_factor[i] * col_factor[j] for (i, j), m in pi.entries.items()},
    )

    for ij, m in shrunk.entries.items():
        _check(modes.leq(m, pi.entries[ij]), "shrink must be dominated by the plan")
    _check(
        dominates(mu, shrunk.row_sums) and dominates(nu, shrunk.col_sums),
        "shrunk marginals must be dominated by (mu, nu)",
    )
    # each sum is a pass over the entries: read each mass once
    mass = pi.mass
    if modes.is_positive(mass):
        shrunk_mass = shrunk.mass
        a_pi = modes.div(
            sum((abs(f[i] - 1) * m for (i, _j), m in pi.entries.items()), 0), mass
        )
        b_pi = modes.div(
            sum((abs(g[j] - 1) * m for (_i, j), m in pi.entries.items()), 0), mass
        )
        jensen = modes.div(mass, (1 + a_pi) * (1 + b_pi))
        _check(modes.geq(shrunk_mass, jensen), "Jensen mass bound must hold")
        if all(fi <= 1 for fi in f) and all(gj <= 1 for gj in g):
            a = modes.div(
                sum((abs(fi - 1) * w for fi, w in zip(f, mu.weights)), 0), mass
            )
            b = modes.div(
                sum((abs(gj - 1) * w for gj, w in zip(g, nu.weights)), 0), mass
            )
            bound = modes.div(mass, (1 + a) * (1 + b))
            _check(
                modes.geq(shrunk_mass, bound),
                "sub-marginal Jensen bound must hold for densities below one",
            )
    return shrunk


def complete_partial(
    pi_eps: Coupling,
    mu: Marginal,
    nu: Marginal,
    cost: CostMatrix = None,
    bound=None,
) -> Coupling:
    """Complete a partial plan to a full coupling of (mu, nu).

    The row and column deficits must carry the same mass eps; the completion
    adds their product scaled by 1/eps.  When ``cost`` and a cellwise bound
    ``bound`` are supplied, the inequality

        cost(full) <= cost(partial) + eps * bound

    is asserted (it needs every cell to be finite and <= bound).
    """
    rows, cols = coupling_marginals(pi_eps)
    if not dominates(mu, rows) or not dominates(nu, cols):
        raise InputError("plan is not a partial coupling of (mu, nu)")
    d_mu, d_nu = _deficit(mu, rows), _deficit(nu, cols)
    if not modes.eq(d_mu.mass, d_nu.mass):
        raise DeficitMismatchError(
            f"row deficit {d_mu.mass} differs from column deficit {d_nu.mass}"
        )
    eps = d_mu.mass
    if eps == 0:
        return pi_eps
    full = add_couplings(pi_eps, product_coupling(d_mu, d_nu, modes.div(1, eps)))
    _check(
        marginals_equal(full.row_sums, mu) and marginals_equal(full.col_sums, nu),
        "completion must be a full coupling of (mu, nu)",
    )
    if cost is not None and bound is not None:
        bound = modes.coerce(bound)
        for i, j, v in cost.cells():
            if is_inf(v) or v > bound:
                raise InputError(
                    f"cell ({i}, {j}) is not bounded by {bound}; the cost "
                    "increase guarantee needs a true cellwise bound"
                )
        _check(
            modes.leq(cost_of(cost, full), cost_of(cost, pi_eps) + eps * bound),
            "completed cost must exceed the partial cost by at most eps * bound",
        )
    return full
