"""Seeded inputs and op lists for the benchmark workloads.

Standard library only, and no ``kantgap`` import: the program under test sees
nothing but the problem and cell-set files written from these structures.

A workload is an endless stream of *blocks*.  Every block has the same fixed
composition (op kinds, instance sizes, densities, marginal kinds, their
order) filled with fresh content (costs, weights, cells, truncation levels)
drawn from ``(workload, seed, block index)``.  A run works through blocks
until its time is up.  The fixed composition keeps the mix of work the same
in every block and for every seed, so block times can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

# A forbidden (infinite-cost) cell.
FORBIDDEN = None


@dataclass(frozen=True)
class Instance:
    """A transport problem; ``cost`` holds Fractions and FORBIDDEN."""

    cost: Tuple[Tuple[Optional[Fraction], ...], ...]
    mu: Tuple[Fraction, ...]
    nu: Tuple[Fraction, ...]
    # whether a finite-cost full coupling exists, known by construction
    feasible: bool
    # ("staircase" | "band", n) when the instance is a family member
    family: Optional[Tuple[str, int]] = None

    @property
    def nx(self) -> int:
        return len(self.mu)

    @property
    def ny(self) -> int:
        return len(self.nu)


@dataclass(frozen=True)
class Op:
    """One CLI command.  In ``argv``, ``{p:NAME}`` stands for the problem file
    of instance NAME and ``{c:NAME}`` for its cell-set file."""

    kind: str  # solve | dual_relaxed | sweep | study | covers
    argv: Tuple[str, ...]
    instance: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)

    @property
    def float_mode(self) -> bool:
        return "--float" in self.argv


@dataclass
class Block:
    instances: Dict[str, Instance]
    cellsets: Dict[str, Tuple[Tuple[int, int], ...]]
    ops: List[Op]


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def _weights(rng: random.Random, n: int, kind: str, zero_atom: bool = False):
    if kind == "uniform":
        return (Fraction(1, n),) * n
    raw = [rng.randint(0, 8) for _ in range(n)]
    if zero_atom:
        raw[rng.randrange(n)] = 0
    if not any(raw):
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return tuple(Fraction(w, total) for w in raw)


def _random_cost(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 12), rng.randint(1, 8))


def _northwest_support(mu, nu):
    """Cells of the north-west-corner plan, a full coupling of (mu, nu)."""
    cells = []
    a, b = list(mu), list(nu)
    i = j = 0
    while i < len(a) and j < len(b):
        step = min(a[i], b[j])
        if step > 0:
            cells.append((i, j))
        a[i] -= step
        b[j] -= step
        if a[i] == 0:
            i += 1
        else:
            j += 1
    return cells


def random_instance(
    rng: random.Random,
    nx: int,
    ny: int,
    density: float,
    marginals: str,
    feasible: bool,
    zero_atom: bool = False,
    shared: bool = False,
) -> Instance:
    """Random rational costs, each cell forbidden with probability ``density``.

    A feasible instance keeps its north-west-corner plan finite.  An
    infeasible one forbids a whole row that carries mass.  ``shared`` makes
    nu equal to mu (one space with one weighting; needs nx == ny)."""
    mu = _weights(rng, nx, marginals, zero_atom)
    nu = mu if shared else _weights(rng, ny, marginals, zero_atom)
    rows = [
        [FORBIDDEN if rng.random() < density else _random_cost(rng) for _ in range(ny)]
        for _ in range(nx)
    ]
    if feasible:
        for i, j in _northwest_support(mu, nu):
            if rows[i][j] is FORBIDDEN:
                rows[i][j] = _random_cost(rng)
    else:
        heavy = [i for i in range(nx) if mu[i] > 0]
        rows[rng.choice(heavy)] = [FORBIDDEN] * ny
    return Instance(tuple(map(tuple, rows)), mu, nu, feasible)


def staircase(n: int) -> Instance:
    """0 below the diagonal, 1 on it, forbidden above; uniform marginals.
    Its only finite full coupling is the diagonal, so P = D = 1."""
    rows = tuple(
        tuple(Fraction(0) if j < i else (Fraction(1) if j == i else FORBIDDEN)
              for j in range(n))
        for i in range(n)
    )
    w = (Fraction(1, n),) * n
    return Instance(rows, w, w, True, ("staircase", n))


def band(n: int) -> Instance:
    """Forbidden band |i - j| < n // 2, free elsewhere; uniform marginals.
    Shifting by n // 2 modulo n is a finite full coupling, so P = D = 0."""
    bw = n // 2
    rows = tuple(
        tuple(FORBIDDEN if abs(i - j) < bw else Fraction(0) for j in range(n))
        for i in range(n)
    )
    w = (Fraction(1, n),) * n
    return Instance(rows, w, w, True, ("band", n))


def family_member(name: str, n: int) -> Instance:
    return staircase(n) if name == "staircase" else band(n)


def problem_doc(inst: Instance) -> dict:
    return {
        "nx": inst.nx,
        "ny": inst.ny,
        "mu": [str(w) for w in inst.mu],
        "nu": [str(w) for w in inst.nu],
        "cost": [["inf" if v is FORBIDDEN else str(v) for v in row] for row in inst.cost],
    }


def cellset_doc(cells) -> dict:
    return {"pairs": [[i, j] for i, j in cells]}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int, block: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{block}")


def _grid(values) -> str:
    return ",".join(str(v) for v in values)


def _levels(rng: random.Random, k: int) -> List[Fraction]:
    """k distinct ascending truncation levels from {0, 1/4, ..., 3}."""
    return sorted(Fraction(v, 4) for v in rng.sample(range(13), k))


def _solve_argv(name: str, float_mode: bool) -> Tuple[str, ...]:
    head = ("--float",) if float_mode else ()
    return head + ("solve", "{p:%s}" % name, "--format", "json")


# one op per block for each entry: (nx, ny), forbidden density, marginal
# kind, feasible.  n ~ 8-24, every density and both marginal kinds occur, and
# one op in five is infeasible.  Five well-separated sizes put the median
# latency inside the middle size's cluster and p90 inside the largest one's,
# not on the edge between two clusters.
TRANSPORT_BLOCK = (
    ((8, 9), 0.1, "uniform", True),
    ((11, 12), 0.5, "random", False),
    ((14, 15), 0.5, "uniform", True),
    ((18, 19), 0.1, "random", True),
    ((24, 23), 0.3, "random", True),
)


def _transport(seed: int, block: int, float_mode: bool) -> Block:
    """One solve --format json per entry of TRANSPORT_BLOCK."""
    rng = _rng("transport", seed, block)
    instances: Dict[str, Instance] = {}
    ops: List[Op] = []
    for k, ((nx, ny), density, kind, feasible) in enumerate(TRANSPORT_BLOCK):
        name = f"t{k}"
        instances[name] = random_instance(rng, nx, ny, density, kind, feasible)
        ops.append(Op("solve", _solve_argv(name, float_mode), name))
    return Block(instances, {}, ops)


CERTIFY_RANDOM = (((4, 4), "uniform"), ((5, 6), "random"), ((6, 5), "uniform"),
                  ((7, 7), "random"))
CERTIFY_FAMILY = (("staircase", 5), ("staircase", 8), ("band", 6), ("band", 9))
STUDY_N = {"staircase": (3, 4, 6, 8), "band": (4, 6, 8)}
STUDY_SCENARIO = {"staircase": "diagonal", "band": "band"}
STUDY_EPS = ("0", "1/n", "1/4")


def _certify(seed: int, block: int) -> Block:
    """solve, then dual --relaxed, on four small feasible random instances
    and four staircase and band members; a sweep over four seeded levels on
    each family member; one study per family over three seeded levels.  The
    family members are the same in every block; their sweep levels are not."""
    rng = _rng("certify", seed, block)
    instances: Dict[str, Instance] = {}
    for k, ((nx, ny), kind) in enumerate(CERTIFY_RANDOM):
        instances[f"r{k}"] = random_instance(rng, nx, ny, 0.3, kind, True)
    for fam, n in CERTIFY_FAMILY:
        instances[f"{fam}{n}"] = family_member(fam, n)
    ops: List[Op] = []
    for name, inst in instances.items():
        ops.append(Op("solve", _solve_argv(name, False), name))
        ops.append(Op("dual_relaxed", ("dual", "{p:%s}" % name, "--relaxed"), name))
        if inst.family is not None:
            levels = _levels(rng, 4)
            ops.append(Op("sweep", ("sweep", "{p:%s}" % name, "--m-grid", _grid(levels)),
                          name, params={"levels": levels}))
    for fam, n_list in STUDY_N.items():
        levels = _levels(rng, 3)
        argv = ("study", "--scenario", STUDY_SCENARIO[fam], "--n-list", _grid(n_list),
                "--eps-grid", ",".join(STUDY_EPS), "--m-grid", _grid(levels))
        ops.append(Op("study", argv, params={
            "family": fam, "n_list": n_list, "eps": STUDY_EPS, "levels": levels}))
    return Block(instances, {}, ops)


# n of the square covers instances, n ~ 4-13, each with exactly 3n/2 cells: the
# exact simplex slows steeply with the number of cells, so a fixed count
# keeps the work per block steady
CELLSET_SIZES = tuple(range(4, 14))
# sizes that also get a second instance whose cell set is null
CELLSET_NULL_SIZES = (6, 11)


def _cellsets(seed: int, block: int) -> Block:
    """covers on random-marginal problems with random cell sets.  Both sides
    share one marginal, the setting of the capacity and of its sandwich
    gamma <= m <= 4 gamma.  The null cell sets lie on weightless rows and
    columns, so their cover value is 0 and the decomposition takes its null
    branch."""
    rng = _rng("cellsets", seed, block)
    instances: Dict[str, Instance] = {}
    cellsets: Dict[str, Tuple[Tuple[int, int], ...]] = {}
    for n in CELLSET_SIZES:
        inst = random_instance(rng, n, n, 0.0, "random", True, shared=True)
        instances[f"k{n}"] = inst
        cellsets[f"k{n}"] = tuple(sorted(
            rng.sample([(i, j) for i in range(n) for j in range(n)], 3 * n // 2)))
        if n in CELLSET_NULL_SIZES:
            inst = random_instance(rng, n, n, 0.0, "random", True, zero_atom=True,
                                   shared=True)
            cells = {(i, rng.randrange(n)) for i in range(n) if inst.mu[i] == 0}
            cells |= {(rng.randrange(n), j) for j in range(n) if inst.nu[j] == 0}
            instances[f"null{n}"] = inst
            cellsets[f"null{n}"] = tuple(sorted(cells))
    ops = [Op("covers", ("covers", "{p:%s}" % name, "--cells", "{c:%s}" % name), name)
           for name in instances]
    return Block(instances, cellsets, ops)


# name -> (seed, block index) -> Block; README.md says why each was chosen
WORKLOADS: Dict[str, Callable[[int, int], Block]] = {
    "transport_exact": lambda seed, block: _transport(seed, block, False),
    "transport_float": lambda seed, block: _transport(seed, block, True),
    "certify": _certify,
    "cellsets": _cellsets,
}
