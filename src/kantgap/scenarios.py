"""Deterministic instance generators.

All generators are pure functions of their parameters (seed included), so
outputs can be pinned by golden tests and CLI runs reproduce byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import modes
from .core import (
    INF,
    CostMatrix,
    DiscreteSpace,
    Marginal,
    _matrix,
    make_cost_matrix,
    make_marginal,
    uniform_marginal,
)
from .errors import InputError

Instance = tuple[CostMatrix, Marginal, Marginal]

#: the only finite-cost full coupling of the staircase instance below is the
#: diagonal one, so its full-transport value stays at 1 for every n while the
#: drop-one-atom partial value is already 0; refining n exhibits the
#: non-uniform limit behind the continuum duality gap.
DIAGONAL = "diagonal"
RANDOM = "random"
BAND = "band"

#: the most cells a generator builds; a larger grid raises ``InputError``
#: before its first row, so a huge size fails at once instead of filling
#: memory
MAX_CELLS = 10**6


def _check_cells(nx: int, ny: int) -> None:
    if nx * ny > MAX_CELLS:
        raise InputError(f"{nx}x{ny} cells exceed the budget of {MAX_CELLS} cells")


def example_diagonal(n: int) -> Instance:
    """Staircase cost on an n-point grid: 0 below the diagonal, 1 on it,
    forbidden above; uniform marginals.

    The strict index comparison (j < i means free) mirrors a cost that is
    zero strictly below the diagonal of the unit square, which is what forces
    every finite-cost full plan onto the diagonal.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    _check_cells(n, n)
    zero, one = modes.coerce(0), modes.coerce(1)
    cells = [(i, j, zero if j < i else one) for i in range(n) for j in range(i + 1)]
    mu = uniform_marginal(n)
    return _matrix(n, n, cells), mu, mu


def random_instance(
    nx: int,
    ny: int,
    inf_density: float = 0.0,
    marginal_kind: str = "uniform",
    seed: int = 0,
) -> Instance:
    """Seeded random instance: rational costs with small denominators, cells
    independently forbidden with probability ``inf_density``, probability
    marginals either uniform or random (random may contain zero atoms).
    The costs are drawn as ``"p/q"`` tokens, as a file holds them, so
    ``make_cost_matrix`` reads each distinct one once, on ints."""
    if not 0 <= inf_density <= 1:
        raise InputError("inf_density must lie in [0, 1]")
    if nx < 1 or ny < 1:
        raise InputError("sizes must be >= 1")
    _check_cells(nx, ny)
    rng = random.Random(seed)
    rows = []
    for _ in range(nx):
        row = []
        for _ in range(ny):
            if rng.random() < inf_density:
                row.append(INF)
            else:
                row.append(f"{rng.randint(0, 12)}/{rng.randint(1, 8)}")
        rows.append(tuple(row))
    c = make_cost_matrix(rows)

    def marginal(n: int) -> Marginal:
        if marginal_kind == "uniform":
            return uniform_marginal(n)
        if marginal_kind == "random":
            weights = [rng.randint(0, 8) for _ in range(n)]
            if not any(weights):
                weights[rng.randrange(n)] = 1
            total = sum(weights)
            return make_marginal(
                DiscreteSpace(n), [Fraction(w, total) for w in weights]
            )
        raise InputError(f"unknown marginal kind {marginal_kind!r}")

    return c, marginal(nx), marginal(ny)


def closed_inf_band(n: int, bandwidth: int) -> Instance:
    """Forbidden band of half-width ``bandwidth`` around the diagonal, free
    elsewhere; uniform marginals.  ``bandwidth`` 0 keeps everything finite;
    larger values strangle feasibility row by row (the forbidden set is a
    single contiguous block in every row, the finite analog of a closed
    forbidden region)."""
    if n < 1:
        raise InputError("n must be >= 1")
    if bandwidth < 0:
        raise InputError("bandwidth must be >= 0")
    if bandwidth >= n:
        raise InputError("bandwidth must be < n")
    _check_cells(n, n)
    zero = modes.coerce(0)
    cells = [(i, j, zero) for i in range(n) for j in range(n) if abs(i - j) >= bandwidth]
    mu = uniform_marginal(n)
    return _matrix(n, n, cells), mu, mu


def family(name: str):
    """Named single-parameter instance families, used by refinement studies."""
    if name == DIAGONAL:
        return example_diagonal
    if name == BAND:
        return lambda n: closed_inf_band(n, max(0, n // 2))
    raise InputError(f"unknown scenario family {name!r}")
