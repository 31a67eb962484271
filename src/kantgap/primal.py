"""Primal-side transport values: full, partial, relaxed and truncated.

Everything here is a point evaluation on the convex mass-cost profile, so
one parametric solve answers every partial-mass question for an instance.

A note on the relaxed value: it is defined as the limit of partial values as
the dropped mass goes to zero.  On a finite instance the profile is a
continuous piecewise-linear function, so that limit *is* the full value
whenever full transport is feasible, and infinite otherwise.  The gap
between the relaxed and the plain value is a continuum phenomenon; at desk
scale it only appears through refinement families (see
``refinement_study``), never on a single instance.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from itertools import product as _cartesian

from . import modes
from .core import (
    CostMatrix,
    Coupling,
    Marginal,
    Record,
    _require_probability,
    is_inf,
    scale_marginal,
)
from .errors import InputError, MassMismatchError
from .flow import SolverRun, _run_ssp, truncation_ladder, value_from_run


def check_eps(eps):
    """eps in the current mode; ``InputError`` unless 0 <= eps <= 1."""
    eps = modes.coerce(eps)
    if not (0 <= eps <= 1):
        raise InputError(f"eps {modes._text(eps)} outside [0, 1]")
    return eps


def primal_value(c: CostMatrix, mu: Marginal, nu: Marginal):
    """Least cost of a full coupling; INF when finite cells cannot carry
    the whole unit mass."""
    _require_probability(mu, nu)
    return value_from_run(_run_ssp(c, mu, nu, warm=True), 1)


# The limit of the partial values as the dropped mass shrinks to zero equals
# the full value on every finite instance (profile continuity, module
# docstring); the relaxed quantity keeps its own name for reports and studies.
relaxed_value = primal_value


def partial_value(c: CostMatrix, mu: Marginal, nu: Marginal, eps):
    """Least cost of shipping mass 1 - eps (the drop-eps transport value)."""
    _require_probability(mu, nu)
    eps = check_eps(eps)
    return value_from_run(_run_ssp(c, mu, nu), 1 - eps)


def phi_value(c: CostMatrix, mu: Marginal, nu: Marginal, f: Sequence, g: Sequence):
    """Least cost of a full coupling between the rescaled marginals f mu and
    g nu.  Requires f, g >= 0 with equal total masses."""
    fmu = scale_marginal(mu, f)
    gnu = scale_marginal(nu, g)
    if not modes.eq(fmu.mass, gnu.mass):
        raise MassMismatchError(
            f"masses differ: |f mu| = {modes._text(fmu.mass)}, "
            f"|g nu| = {modes._text(gnu.mass)}"
        )
    return value_from_run(_run_ssp(c, fmu, gnu, warm=True), fmu.mass)


def truncation_sweep(
    c: CostMatrix, mu: Marginal, nu: Marginal, levels: Sequence[CostMatrix]
) -> list[tuple[int, object]]:
    """Full-transport values of c /\\ h for a nondecreasing ladder of finite
    truncation levels h, re-optimised level to level on one network."""
    _require_probability(mu, nu)
    steps = truncation_ladder(c, mu, nu, levels)
    return [(k, step.value) for k, step in enumerate(steps)]


def constant_truncation_sweep(
    c: CostMatrix, mu: Marginal, nu: Marginal, ms: Sequence
) -> list[tuple[object, object]]:
    """Convenience sweep over nondecreasing constant levels M; returns
    (M, value) pairs."""
    _require_probability(mu, nu)
    return [(step.level, step.value) for step in truncation_ladder(c, mu, nu, ms)]


class PrimalReport(Record):
    """Summary of the primal side of one instance."""

    value: object  # full-transport value, possibly INF
    partials: tuple[tuple[object, object], ...]  # (eps, value), eps ascending
    relaxed: object
    max_mass: object
    witness: Coupling | None  # a minimizing full coupling when one exists


def primal_report(
    c: CostMatrix, mu: Marginal, nu: Marginal, eps_grid: Sequence = ()
) -> PrimalReport:
    """P, the partial values at ``eps_grid`` and a witness from one engine
    run, warm-started unless partial values are asked for."""
    _require_probability(mu, nu)
    return primal_from_run(_run_ssp(c, mu, nu, warm=not eps_grid), eps_grid)


def primal_from_run(run: SolverRun, eps_grid: Sequence = ()) -> PrimalReport:
    """``primal_report`` read from an untargeted run; only a cold run
    answers partial values."""
    value = value_from_run(run, 1)
    partials = tuple(
        (eps, value_from_run(run, 1 - eps))
        for eps in sorted(check_eps(e) for e in eps_grid)
    )
    witness = None if is_inf(value) else run.plan()
    return PrimalReport(
        value=value,
        partials=partials,
        relaxed=value,
        max_mass=run.shipped,
        witness=witness,
    )


class StudyRow(Record):
    n: int
    eps: object
    level: object
    value: object  # full-transport value at this n
    partial: object  # value after dropping eps
    truncated: object  # value under c /\ level
    dual: object  # dual value at this n


def resolve_eps(token, n: int):
    """Grid entries may scale with the instance: "1/n", "2/n" and plain
    numbers are accepted."""
    try:
        if isinstance(token, str) and token.strip().endswith("/n"):
            return modes.div(int(token.strip()[:-2]), n)
        return modes.coerce(token)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"malformed eps {modes._shown(token)}") from exc


def refinement_study(
    family: Callable[[int], tuple[CostMatrix, Marginal, Marginal]],
    n_list: Sequence[int],
    eps_list: Sequence,
    m_list: Sequence,
) -> list[StudyRow]:
    """Cross-tabulated double-limit table over a refinement family.

    One row per (n, eps, level).  For the staircase family the value and
    dual columns stay at 1 for every n while the partial column at eps = 1/n
    stays at 0: the order of the two limits (n up, eps down) matters, which
    is exactly the mechanism the table is meant to exhibit.
    """
    from .dual import dual_from_run  # local import keeps module layering simple

    rows: list[StudyRow] = []
    for n in n_list:
        # the family checks n, and builds without solving, before n scales the grid
        c, mu, nu = family(n)
        eps_values = [check_eps(resolve_eps(e, n)) for e in eps_list]
        m_values = [modes.coerce(m) for m in m_list]
        _require_probability(mu, nu)
        run = _run_ssp(c, mu, nu)
        p = value_from_run(run, 1)
        d = dual_from_run(run).value
        ladder = truncation_ladder(c, mu, nu, sorted(set(m_values)))
        truncated = {step.level: step.value for step in ladder}
        # one interpolation per distinct eps, not per (eps, level) row
        partial = {eps: value_from_run(run, 1 - eps) for eps in dict.fromkeys(eps_values)}
        for eps, m in _cartesian(eps_values, m_values):
            rows.append(
                StudyRow(
                    n=n,
                    eps=eps,
                    level=m,
                    value=p,
                    partial=partial[eps],
                    truncated=truncated[m],
                    dual=d,
                )
            )
    return rows
