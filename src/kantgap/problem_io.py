"""Serialization: problem JSON, cell-set JSON, certificates, CSV tables.

Problem schema::

    { "nx": int, "ny": int,
      "mu": [numbers or "p/q" strings], "nu": [...],
      "cost": [[..., "inf", ...], ...] }

The token "inf" (any case) marks a forbidden cell.  The loaders check the
document's shape and hand every raw entry to the ``core`` constructors, which
read it once through ``modes.coerce`` in the caller's arithmetic mode; JSON
``NaN`` and ``Infinity`` are rejected there like any malformed number.
Rationals serialize as "p/q" strings in exact mode and as decimal reprs in
float mode.  All writers emit deterministic bytes for identical inputs.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence

from . import modes
from .core import (
    NEG_INF,
    CostMatrix,
    DiscreteSpace,
    Marginal,
    is_inf,
    is_neg_inf,
    make_cost_matrix,
    make_marginal,
)
from .errors import InputError


def format_number(x) -> str:
    if is_inf(x):
        return "inf"
    if is_neg_inf(x):
        return "-inf"
    if isinstance(x, float):
        return repr(x)
    try:
        return str(x)
    except ValueError:  # an int beyond Python's digit limit
        raise InputError(f"a number has more than {sys.get_int_max_str_digits()} digits") from None


def parse_potential(token):
    """A dual potential: the "-inf" token of dual certificates, else a
    number read by ``modes.coerce``."""
    if isinstance(token, str) and token.strip().lower() == "-inf":
        return NEG_INF
    return modes.coerce(token)


def _require_list(value, what: str, length: int) -> list:
    if not isinstance(value, list) or len(value) != length:
        raise InputError(f"{what} must be a list of length {length}")
    return value


def load_problem(doc: dict) -> tuple[CostMatrix, Marginal, Marginal]:
    try:
        nx, ny = doc["nx"], doc["ny"]
        mu_raw, nu_raw, cost_raw = doc["mu"], doc["nu"], doc["cost"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed problem document: {exc}") from exc
    X, Y = DiscreteSpace(nx), DiscreteSpace(ny)
    mu = make_marginal(X, _require_list(mu_raw, "mu", nx))
    nu = make_marginal(Y, _require_list(nu_raw, "nu", ny))
    rows = [_require_list(row, "cost row", ny) for row in _require_list(cost_raw, "cost", nx)]
    return make_cost_matrix(rows), mu, nu


def dump_problem(c: CostMatrix, mu: Marginal, nu: Marginal) -> dict:
    return {
        "nx": c.nx,
        "ny": c.ny,
        "mu": [format_number(w) for w in mu.weights],
        "nu": [format_number(w) for w in nu.weights],
        "cost": [[format_number(v) for v in row] for row in c.rows],
    }


def _load_json(path: str):
    """A JSON file's document; InputError for whatever json cannot read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None


def load_problem_file(path: str) -> tuple[CostMatrix, Marginal, Marginal]:
    return load_problem(_load_json(path))


def load_cellset(doc, nx: int, ny: int):
    """A ``kellerer.CellSet`` (that module loads here, on first use).  Cell
    sets arrive as {"pairs": [[i, j], ...]} or {"matrix": [[0, 1], ..]};
    anything else, a bare list or a document with both keys included, is
    rejected: a bare list of pairs on an n x 2 grid has a matrix's shape."""
    from .kellerer import cellset_from_matrix, cellset_from_pairs

    if isinstance(doc, dict):
        if "pairs" in doc and "matrix" in doc:
            raise InputError('cell-set document has both "pairs" and "matrix"')
        if "pairs" in doc:
            return cellset_from_pairs(nx, ny, doc["pairs"])
        if "matrix" in doc:
            L = cellset_from_matrix(doc["matrix"])
            if (L.nx, L.ny) != (nx, ny):
                raise InputError("cell-set matrix does not match the problem grid")
            return L
    raise InputError('cell-set document needs "pairs" or "matrix"')


def load_cellset_file(path: str, nx: int, ny: int):
    return load_cellset(_load_json(path), nx, ny)


def improving_ray(ray) -> dict:
    return {
        "d_phi": [format_number(v) for v in ray.d_phi],
        "d_psi": [format_number(v) for v in ray.d_psi],
        "slope": format_number(ray.slope),
    }


def dual_certificate(pair, value, feasible: bool) -> dict:
    return {
        "phi": [format_number(p) for p in pair.phi],
        "psi": [format_number(p) for p in pair.psi],
        "objective": format_number(value),
        "feasible": feasible,
    }


def _csv(header: str, rows) -> str:
    """The header line, then one line of numbers per row."""
    lines = [header] + [",".join(map(format_number, row)) for row in rows]
    return "\n".join(lines) + "\n"


def profile_csv(profile) -> str:
    return _csv("mass,cost", profile.breakpoints)


def sweep_csv(rows: Sequence[tuple[object, object]]) -> str:
    return _csv("M,P_trunc", rows)


STUDY_HEADER = "n,epsilon,M,P,P_eps,P_trunc,D"


def study_csv(rows) -> str:
    return _csv(
        STUDY_HEADER,
        ((r.n, r.eps, r.level, r.value, r.partial, r.truncated, r.dual) for r in rows),
    )


def coupling_entries(pi) -> list[list]:
    return [[i, j, format_number(m)] for (i, j), m in pi.items()]
