"""Independent checks of the CLI's outputs.

Shares no code with the solvers: outputs are parsed with ``json`` and
``fractions`` and checked against the generator's own instance data.  Exact
outputs are checked with zero tolerance, ``--float`` outputs with 1e-9.  The
only parts of ``kantgap`` used are its brute-force ``oracle`` module (itself
independent of the solvers), on instances within its size limits, and the
``core`` constructors the oracle takes as input.

``Verifier.check`` returns None when an output verifies, else the reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

from workloads import FORBIDDEN, Instance, Op, family_member

FLOAT_TOL = Fraction(1, 10**9)

# the potential token for minus infinity, kept as a string after parsing
NEG_INF = "-inf"
INF = "inf"

# the brute-force oracles' size limits (kantgap.oracle)
ORACLE_PRIMAL_MAX_N = 4
ORACLE_COVER_MAX_NX_PLUS_NY = 20
# half-integral capacity search over {0, 1/2, 1}^n up to this n
CAPACITY_SEARCH_MAX_N = 7
# every op of every workload is a well-posed request
EXPECTED_RC = 0


class Rejected(Exception):
    """An output failed a check."""


def _need(cond: bool, why: str) -> None:
    if not cond:
        raise Rejected(why)


def num(token):
    """A number token as a Fraction; "inf" and "-inf" stay as strings."""
    if token in (INF, NEG_INF):
        return token
    _need(isinstance(token, str), f"number token {token!r} is not a string")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise Rejected(f"bad number token {token!r}") from exc


def finite(token) -> Fraction:
    x = num(token)
    _need(isinstance(x, Fraction), f"expected a finite number, got {token!r}")
    return x


def _finite_cells(inst: Instance):
    for i, row in enumerate(inst.cost):
        for j, v in enumerate(row):
            if v is not FORBIDDEN:
                yield i, j, v


def _objective(phi, psi, inst: Instance):
    """sum phi mu + sum psi nu with (-oo) * 0 = 0; NEG_INF if unbounded below."""
    total = Fraction(0)
    for pots, weights in ((phi, inst.mu), (psi, inst.nu)):
        for p, w in zip(pots, weights):
            if w == 0:
                continue
            if p == NEG_INF:
                return NEG_INF
            total += p * w
    return total


def _pair_slack_ok(phi, psi, i, j, c, tol) -> bool:
    if phi[i] == NEG_INF or psi[j] == NEG_INF:
        return True
    return phi[i] + psi[j] - c <= tol


class Verifier:
    """Checks the ops of one workload run.

    A verified ``solve`` certifies the value P and the witness support of its
    instance; a later ``dual --relaxed`` or ``sweep`` on the same instance is
    checked against them, so ops are checked in the order they run."""

    def __init__(self):
        self.oracle = KantgapOracle()
        self.certified: Dict[Tuple[int, str], Tuple[object, frozenset]] = {}
        self.infeasible = 0  # outputs reporting an infeasible transport

    def check(self, block_id: int, op: Op, inst: Optional[Instance], cells,
              rc: int, text: str) -> Optional[str]:
        try:
            _need(rc == EXPECTED_RC, f"exit code {rc}, expected {EXPECTED_RC}")
            getattr(self, "_" + op.kind)(block_id, op, inst, cells, text)
        except Rejected as exc:
            return f"{op.kind}: {exc}"
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            # malformed output: bad JSON or CSV, missing keys, wrong shapes
            return f"{op.kind}: malformed output ({type(exc).__name__}: {exc})"
        return None

    # -- solve ------------------------------------------------------------

    def _solve(self, block_id, op, inst, cells, text):
        tol = FLOAT_TOL if op.float_mode else 0
        doc = json.loads(text)
        if doc.get("P") == INF:
            self._infeasible_solve(doc, inst, tol)
            self.infeasible += 1
            return
        _need(inst.feasible, "finite P on an instance built infeasible")
        P = finite(doc["P"])
        _need(abs(finite(doc["D"]) - P) <= tol, "D differs from P")
        _need(abs(finite(doc["gap"])) <= tol, "nonzero gap")
        rows = [Fraction(0)] * inst.nx
        cols = [Fraction(0)] * inst.ny
        cost = Fraction(0)
        support = set()
        for i, j, m in doc["witness"]:
            _need(0 <= i < inst.nx and 0 <= j < inst.ny, "witness cell off the grid")
            m = finite(m)
            _need(m > 0, "nonpositive witness entry")
            c = inst.cost[i][j]
            _need(c is not FORBIDDEN, f"witness charges forbidden cell ({i}, {j})")
            rows[i] += m
            cols[j] += m
            cost += c * m
            support.add((i, j))
        _need(all(abs(a - b) <= tol for a, b in zip(rows, inst.mu)),
              "witness row sums differ from mu")
        _need(all(abs(a - b) <= tol for a, b in zip(cols, inst.nu)),
              "witness column sums differ from nu")
        _need(abs(cost - P) <= tol, "witness cost differs from P")
        phi = [num(t) for t in doc["phi"]]
        psi = [num(t) for t in doc["psi"]]
        _need(len(phi) == inst.nx and len(psi) == inst.ny, "potential lengths")
        _need(INF not in phi and INF not in psi, "+inf potential")
        for i, j, c in _finite_cells(inst):
            _need(_pair_slack_ok(phi, psi, i, j, c, tol),
                  f"phi + psi exceeds c at ({i}, {j})")
        for i, j in support:
            _need(phi[i] != NEG_INF and psi[j] != NEG_INF
                  and abs(phi[i] + psi[j] - inst.cost[i][j]) <= tol,
                  f"complementary slackness fails at ({i}, {j})")
        obj = _objective(phi, psi, inst)
        _need(obj != NEG_INF and abs(obj - P) <= tol, "dual objective differs from P")
        self.certified[(block_id, op.instance)] = (P, frozenset(support))

    def _infeasible_solve(self, doc, inst, tol):
        _need(not inst.feasible, "P = inf on an instance built feasible")
        _need(doc.get("D") == INF, "D is not inf")
        ray = doc["improving_ray"]
        d_phi = [finite(t) for t in ray["d_phi"]]
        d_psi = [finite(t) for t in ray["d_psi"]]
        _need(len(d_phi) == inst.nx and len(d_psi) == inst.ny, "ray lengths")
        for i, j, _c in _finite_cells(inst):
            _need(d_phi[i] + d_psi[j] <= tol, f"ray raises phi + psi at ({i}, {j})")
        slope = finite(ray["slope"])
        _need(abs(_objective(d_phi, d_psi, inst) - slope) <= tol, "ray slope mismatch")
        _need(slope > tol, "ray slope is not positive")

    # -- dual --relaxed ----------------------------------------------------

    def _dual_relaxed(self, block_id, op, inst, cells, text):
        tol = FLOAT_TOL if op.float_mode else 0
        _need((block_id, op.instance) in self.certified, "no certified solve to check against")
        P, support = self.certified[(block_id, op.instance)]
        doc = json.loads(text)
        phi = [num(t) for t in doc["phi"]]
        psi = [num(t) for t in doc["psi"]]
        _need(len(phi) == inst.nx and len(psi) == inst.ny, "potential lengths")
        obj = finite(doc["objective"])
        _need(abs(obj - P) <= tol, "relaxed objective differs from the certified P")
        value = _objective(phi, psi, inst)
        _need(value != NEG_INF and abs(value - obj) <= tol,
              "objective differs from the pair's value")
        chargeable = set()
        for i, j in doc["chargeable"]:
            _need(0 <= i < inst.nx and 0 <= j < inst.ny, "chargeable cell off the grid")
            c = inst.cost[i][j]
            _need(c is not FORBIDDEN, f"forbidden cell ({i}, {j}) listed chargeable")
            _need(_pair_slack_ok(phi, psi, i, j, c, tol),
                  f"pair infeasible on chargeable cell ({i}, {j})")
            chargeable.add((i, j))
        _need(support <= chargeable, "chargeable set misses the witness support")
        everywhere = all(_pair_slack_ok(phi, psi, i, j, c, tol)
                         for i, j, c in _finite_cells(inst))
        _need(doc["feasible"] is everywhere, "wrong 'feasible' flag")

    # -- sweep and study -----------------------------------------------------

    def _sweep(self, block_id, op, inst, cells, text):
        levels = op.params["levels"]
        lines = text.splitlines()
        _need(lines and lines[0] == "M,P_trunc", "sweep header")
        rows = [line.split(",") for line in lines[1:]]
        _need([finite(m) for m, _ in rows] == list(levels), "sweep levels differ")
        values = [finite(v) for _, v in rows]
        _need(all(a <= b for a, b in zip(values, values[1:])),
              "truncated values decrease in M")
        P = self.certified.get((block_id, op.instance), (None,))[0]
        for m, v in zip(levels, values):
            _need(0 <= v <= m, f"truncated value {v} outside [0, M] at M = {m}")
            _need(P is None or v <= P, "truncated value above P")
            _need(v == family_truncated(*inst.family, m),
                  f"truncated value {v} at M = {m} differs from the closed form")

    def _study(self, block_id, op, inst, cells, text):
        p = op.params
        lines = text.splitlines()
        _need(lines and lines[0] == "n,epsilon,M,P,P_eps,P_trunc,D", "study header")
        rows = [line.split(",") for line in lines[1:]]
        expected = [(n, e, m) for n in p["n_list"] for e in p["eps"] for m in p["levels"]]
        _need(len(rows) == len(expected), "study row count")
        known = {"staircase": 1, "band": 0}[p["family"]]
        by_key = {}
        for row, (n, eps_token, m) in zip(rows, expected):
            _need(len(row) == 7, "study row width")
            eps = Fraction(1, n) * int(eps_token[:-2]) if eps_token.endswith("/n") \
                else Fraction(eps_token)
            _need(int(row[0]) == n and finite(row[1]) == eps and finite(row[2]) == m,
                  "study row keys")
            P, P_eps, P_trunc, D = (finite(t) for t in row[3:])
            _need(P == D, f"P != D at n = {n}")
            _need(P == known, f"P = {P} at n = {n}, expected {known}")
            _need(0 <= P_eps <= P, "P_eps outside [0, P]")
            _need(0 <= P_trunc <= min(m, P), "P_trunc outside [0, min(M, P)]")
            _need(P_trunc == family_truncated(p["family"], n, m),
                  f"P_trunc at n = {n}, M = {m} differs from the closed form")
            _need(p["family"] != "band" or P_eps == 0, f"band P_eps nonzero at n = {n}")
            by_key.setdefault((n, eps_token), []).append(P_trunc)
            if n <= ORACLE_PRIMAL_MAX_N:
                inst = family_member(p["family"], n)
                _need(self.oracle.primal(inst, 1 - eps) == P_eps,
                      f"oracle disagrees on P_eps at n = {n}")
                _need(self.oracle.primal(inst, 1, m) == P_trunc,
                      f"oracle disagrees on P_trunc at n = {n}")
        for values in by_key.values():
            _need(all(a <= b for a, b in zip(values, values[1:])),
                  "truncated values decrease in M")

    # -- covers ----------------------------------------------------------------

    def _covers(self, block_id, op, inst, cells, text):
        doc = json.loads(text)
        L = set(map(tuple, cells))
        mu, nu = inst.mu, inst.nu
        m = finite(doc["m"])
        rows, cols = set(doc["cover_rows"]), set(doc["cover_cols"])
        _need(rows <= set(range(inst.nx)) and cols <= set(range(inst.ny)),
              "cover index off the grid")
        _need(all(i in rows or j in cols for i, j in L), "cover misses a cell of L")
        _need(sum((mu[i] for i in rows), Fraction(0)) + sum((nu[j] for j in cols), Fraction(0))
              == m, "cover weight differs from m")
        _need(finite(doc["max_mass"]) == m, "max_mass differs from m")
        if inst.nx + inst.ny <= ORACLE_COVER_MAX_NX_PLUS_NY:
            _need(self.oracle.cover(inst, L) == m, "oracle cover value differs from m")
        _need(doc["null_for_all_couplings"] is (m == 0), "wrong null_for_all_couplings")
        if inst.nx == inst.ny:
            gamma = finite(doc["gamma"])
            f = [finite(t) for t in doc["f"]]
            _need(len(f) == inst.nx and all(0 <= v <= 1 for v in f), "f outside [0, 1]")
            _need(all(f[i] + f[j] >= 1 for i, j in L), "f + f < 1 on a cell of L")
            _need(sum((w * v for w, v in zip(mu, f)), Fraction(0)) == gamma,
                  "f does not weigh gamma")
            _need(gamma <= m <= 4 * gamma, "gamma <= m <= 4 gamma fails")
            if inst.nx <= CAPACITY_SEARCH_MAX_N:
                _need(gamma == _half_integral_capacity(L, mu), "gamma is not minimal")
        dec = doc["decomposition"]
        if m == 0:
            null_rows, null_cols = set(dec["null_rows"]), set(dec["null_cols"])
            _need(all(mu[i] == 0 for i in null_rows) and all(nu[j] == 0 for j in null_cols),
                  "null band carries weight")
            _need(all(i in null_rows or j in null_cols for i, j in L),
                  "null bands miss a cell of L")
        else:
            _need("witness" in dec, "positive m without a charging witness")
            rs = [Fraction(0)] * inst.nx
            cs = [Fraction(0)] * inst.ny
            charged = Fraction(0)
            for i, j, v in dec["witness"]:
                v = finite(v)
                _need(v > 0, "nonpositive witness entry")
                rs[i] += v
                cs[j] += v
                if (i, j) in L:
                    charged += v
            _need(rs == list(mu) and cs == list(nu), "witness is not a full coupling")
            _need(charged > 0, "witness does not charge L")


def family_truncated(family: str, n: int, level) -> Fraction:
    """Full-transport value of a family member with costs truncated at M.

    Band: a zero-cost full coupling exists, so 0.  Staircase: min(M/n, 1).
    The cyclic shift (row i to column i - 1, row 0 to column n - 1) costs
    M/n and the diagonal costs min(1, M); the dual pair phi_i = -i M/n,
    psi_j = j M/n + min(M/n, 1) is feasible for the truncated cost and has
    objective min(M/n, 1)."""
    if family == "band":
        return Fraction(0)
    return min(Fraction(level) / n, Fraction(1))


def _half_integral_capacity(L, lam):
    """min sum lam f over f in {0, 1/2, 1}^n with f_i + f_j >= 1 on L; equal
    to the capacity by half-integrality of the vertex-cover polytope."""
    half = Fraction(1, 2)
    best = None
    for f in product((0, half, 1), repeat=len(lam)):
        if all(f[i] + f[j] >= 1 for i, j in L):
            v = sum((w * x for w, x in zip(lam, f)), Fraction(0))
            if best is None or v < best:
                best = v
    return best


class KantgapOracle:
    """Adapter from generator instances to ``kantgap.oracle`` (exact mode)."""

    def __init__(self):
        from kantgap import core, modes, oracle

        self._core, self._modes, self._oracle = core, modes, oracle

    def _cost(self, inst: Instance, level):
        core = self._core
        rows = []
        for row in inst.cost:
            out = []
            for v in row:
                if level is not None:
                    v = level if v is FORBIDDEN else min(v, level)
                out.append(core.INF if v is FORBIDDEN else v)
            rows.append(out)
        return core.make_cost_matrix(rows)

    def _marginal(self, weights):
        core = self._core
        return core.make_marginal(core.DiscreteSpace(len(weights)), weights)

    def primal(self, inst: Instance, mass, level=None):
        with self._modes.arithmetic(self._modes.EXACT):
            c = self._cost(inst, level)
            v = self._oracle.brute_primal(c, self._marginal(inst.mu),
                                          self._marginal(inst.nu), mass)
        return INF if self._core.is_inf(v) else Fraction(v)

    def cover(self, inst: Instance, cells):
        L = SimpleNamespace(
            nx=inst.nx,
            ny=inst.ny,
            rows=tuple(tuple((i, j) in cells for j in range(inst.ny))
                       for i in range(inst.nx)),
        )
        with self._modes.arithmetic(self._modes.EXACT):
            v = self._oracle.brute_cover(L, self._marginal(inst.mu),
                                         self._marginal(inst.nu))
        return Fraction(v)
