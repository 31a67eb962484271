"""A cell set holds its cells, and is its own cost.

``kellerer.CellSet`` keeps its grid's sides and its cells, row-major, each
once; its boolean grid ``rows`` is derived on each read.  The engine runs on
the cell set itself, 0 on its cells and forbidden elsewhere, so the
``covers`` functions read no grid and build no ``CostMatrix``
(``test_warm_matching`` checks its cells against the indicator matrix's).
The oracle reads ``rows``, and ``perfbench/verify.py`` hands it a plain
namespace with the same three attributes, which must answer as the cell set
does.
"""

import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import kantgap as kg
from kantgap import core, kellerer, modes, oracle
from kantgap.modes import EXACT, FLOAT, arithmetic


def _case(seed, square=False):
    """A seeded cell set with random probability marginals, some atoms
    weightless; every third one is null (its cells sit on weightless rows
    or columns)."""
    rng = random.Random(seed)
    nx = rng.randint(1, 7)
    ny = nx if square else rng.randint(1, 7)

    def weights(n):
        w = [rng.randint(0, 4) for _ in range(n)]
        if not any(w):
            w[rng.randrange(n)] = 1
        return kg.make_marginal(kg.DiscreteSpace(n), [F(x, sum(w)) for x in w])

    mu, nu = weights(nx), weights(ny)
    if seed % 3 == 0:
        pairs = [(i, j) for i in range(nx) for j in range(ny)
                 if (mu.weights[i] == 0 or nu.weights[j] == 0) and rng.random() < 0.5]
    else:
        pairs = [(i, j) for i in range(nx) for j in range(ny) if rng.random() < 0.4]
    return kg.cellset_from_pairs(nx, ny, pairs), mu, nu


def _read(L, mu, nu):
    """Everything ``covers`` reads about L, from the public functions."""
    out = [
        kellerer.matching_run(L, mu, nu).shipped,
        kg.cover_value(L, mu, nu),
        kg.kellerer_decompose(L, mu, nu),
        kg.null_for_all_couplings(L, mu, nu),
    ]
    if L.nx == L.ny:
        out.append(kg.capacity_value(L, mu))
    return out


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_covers_functions_read_no_grid_and_build_no_cost_matrix(mode, monkeypatch):
    with arithmetic(mode):
        cases = [_case(seed, square=seed % 2 == 0) for seed in range(60)]
        expected = [_read(*case) for case in cases]

    def no_grid(self):
        raise AssertionError("a covers function read the cell set's grid")

    built = []
    init = core.CostMatrix.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kellerer.CellSet, "rows", property(no_grid), raising=False)
    monkeypatch.setattr(core.CostMatrix, "__init__", counted)
    with arithmetic(mode):
        got = [_read(*case) for case in cases]
    assert got == expected
    assert not built


def test_pairs_and_matrix_build_the_same_cell_set():
    for seed in range(100):
        rng = random.Random(seed)
        nx, ny = rng.randint(1, 7), rng.randint(1, 7)
        cells = {(rng.randrange(nx), rng.randrange(ny)) for _ in range(rng.randint(0, 12))}
        pairs = [list(c) for c in cells] * rng.randint(1, 3)
        rng.shuffle(pairs)
        L = kg.cellset_from_pairs(nx, ny, pairs)
        matrix = [[int((i, j) in cells) for j in range(ny)] for i in range(nx)]
        assert L == kg.cellset_from_matrix(matrix), seed
        assert L.pairs == tuple(sorted(cells))
        assert kg.cellset_from_matrix(L.rows) == L
        assert all((i, j) in L for i, j in cells)
        assert all(((i, j) in L) == L.rows[i][j] for i in range(nx) for j in range(ny))


def test_brute_cover_reads_a_namespace_as_the_cell_set():
    # perfbench/verify.py hands the oracle SimpleNamespace(nx, ny, rows)
    for seed in range(60):
        L, mu, nu = _case(seed)
        plain = SimpleNamespace(nx=L.nx, ny=L.ny, rows=L.rows)
        value = oracle.brute_cover(L, mu, nu)
        assert oracle.brute_cover(plain, mu, nu) == value, seed
        assert modes.eq(value, kg.cover_value(L, mu, nu)[0]), seed
