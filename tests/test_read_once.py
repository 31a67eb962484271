"""The core constructors read each distinct string token once per call.

``make_cost_matrix`` and ``make_marginal`` keep a memo from the raw string
to the value read, for the length of one call.  Every check here compares
them with per-entry reading through ``_coerce_cost`` and ``modes.coerce``:
the values, their types and the float sign of zero, the errors, and the
bytes the CLI prints.
"""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import kantgap as kg
from kantgap import core, modes
from kantgap.cli import main
from kantgap.errors import InputError, NegativeWeightError

BOTH = [modes.EXACT, modes.FLOAT]


def _shape(values):
    """What a reader gave, down to the type and the sign of a float zero."""
    return tuple((type(v), repr(v)) for v in values)


def _outcome(build):
    try:
        return "ok", build()
    except InputError as exc:
        return type(exc), str(exc)


def _memo_cost(rows):
    return tuple(_shape(row) for row in kg.make_cost_matrix(rows).rows)


def _per_entry_cost(rows):
    return tuple(_shape([core._coerce_cost(v) for v in row]) for row in rows)


def _memo_weights(ws):
    mu = kg.make_marginal(kg.DiscreteSpace(len(ws)), ws)
    return _shape(mu.weights), repr(mu.mass)


def _per_entry_weights(ws):
    read = [modes.coerce(w) for w in ws]
    mu = kg.make_marginal(kg.DiscreteSpace(len(ws)), read)  # no strings: no memo
    return _shape(read), repr(mu.mass)


# ---------------------------------------------------------------------------
# fixed cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", BOTH)
def test_equal_values_written_differently(mode):
    row = ["1", "1.0", "2/2", " 1 ", "1", "1.0", "7/3", "14/6", "7/3"]
    with modes.arithmetic(mode):
        assert _memo_cost([row, row]) == _per_entry_cost([row, row])
        assert _memo_weights(row) == _per_entry_weights(row)


@pytest.mark.parametrize("mode", BOTH)
def test_inf_tokens(mode):
    row = ["inf", " INF ", "Inf", "inf", "2", " INF "]
    with modes.arithmetic(mode):
        rows = kg.make_cost_matrix([row]).rows
        assert [kg.is_inf(v) for v in rows[0]] == [True, True, True, True, False, True]
        assert _memo_cost([row]) == _per_entry_cost([row])
        with pytest.raises(InputError, match="malformed number 'inf'"):
            kg.make_marginal(kg.DiscreteSpace(2), ["inf", "inf"])


def test_float_negative_zero_keeps_its_sign():
    row = [0.0, -0.0, "-0.0", "0", -0.0, 0.0, "-0.0"]
    with modes.arithmetic(modes.FLOAT):
        got = _memo_cost([row])
        assert got == _per_entry_cost([row])
        assert [r for _, r in got[0]] == ["0.0", "-0.0", "0.0", "0.0", "-0.0", "0.0", "0.0"]
        assert _memo_weights(row) == _per_entry_weights(row)


@pytest.mark.parametrize("mode", BOTH)
def test_mixed_non_strings_are_read_one_by_one(mode):
    row = [1, 1.0, "1", 0.0, -0.0, "1", 1, F(2, 2), 1.0]
    with modes.arithmetic(mode):
        assert _memo_cost([row]) == _per_entry_cost([row])
        assert _memo_weights(row) == _per_entry_weights(row)
        if mode == modes.EXACT:
            assert [type(v) for v in kg.make_cost_matrix([row]).rows[0][:3]] == [int] * 3
        for bad in (["1", True, "1"], [1, True], [True, "1", True]):
            with pytest.raises(InputError, match="malformed number True"):
                kg.make_cost_matrix([bad])
            with pytest.raises(InputError, match="malformed number True"):
                kg.make_marginal(kg.DiscreteSpace(len(bad)), bad)


@pytest.mark.parametrize("mode", BOTH)
@pytest.mark.parametrize("bad", ["x/y", "1/0", "nan", "1e99999"])
def test_repeated_bad_token_raises_as_before(mode, bad):
    row = ["1", bad, "2", bad]
    with modes.arithmetic(mode):
        with pytest.raises(InputError) as first:
            modes.coerce(bad)
        assert _outcome(lambda: _memo_cost([row])) == (first.type, str(first.value))
        assert _outcome(lambda: _memo_cost([row])) == _outcome(lambda: _per_entry_cost([row]))
        assert _outcome(lambda: _memo_weights(row)) == _outcome(lambda: _per_entry_weights(row))


@pytest.mark.parametrize("mode", BOTH)
def test_repeated_negative_tokens(mode):
    with modes.arithmetic(mode):
        with pytest.raises(NegativeWeightError, match=r"cost -1(\.0)? is negative"):
            kg.make_cost_matrix([["-1", "2"], ["-1", "-1"]])
        with pytest.raises(NegativeWeightError, match=r"weight -(1/2|0\.5) at atom 1"):
            kg.make_marginal(kg.DiscreteSpace(3), ["1", "-1/2", "-1/2"])


@pytest.mark.parametrize("mode", BOTH)
def test_one_read_per_distinct_string(mode, monkeypatch):
    # a cost entry is read by core._read_cost, which reads a plain token on
    # ints and hands every other entry to _coerce_cost; a weight by
    # modes.coerce
    costs, weights = [], []

    def counting(real, seen):
        def read(x):
            seen.append(x)
            return real(x)

        return read

    monkeypatch.setattr(core, "_read_cost", counting(core._read_cost, costs))
    monkeypatch.setattr(modes, "coerce", counting(modes.coerce, weights))
    rows = [["1", "7/3", "inf", 2], ["7/3", "1", " INF ", 2], ["1.0", "1", "inf", 2.5]]
    with modes.arithmetic(mode):
        kg.make_cost_matrix(rows)
        assert sorted(map(repr, costs)) == sorted(
            map(repr, ["1", "7/3", "inf", " INF ", "1.0", 2, 2, 2.5])
        )
        weights.clear()
        kg.make_marginal(kg.DiscreteSpace(6), ["1/6", "1/6", "1/6", "1/6", "2/12", 1 / 6])
        assert sorted(map(repr, weights)) == sorted(map(repr, ["1/6", "2/12", 1 / 6]))
        costs.clear()
        kg.make_cost_matrix(rows)  # a new call reads afresh: nothing is kept
        assert len(costs) == 8


def _per_entry_matrix(rows, monkeypatch):
    """``make_cost_matrix`` with every entry read on its own, through an
    empty memo; its shape checks stay."""
    with monkeypatch.context() as patch:
        patch.setattr(core, "_read_once", lambda read, memo: read)
        return _outcome(lambda: tuple(_shape(r) for r in kg.make_cost_matrix(rows).rows))


@pytest.mark.parametrize("mode", BOTH)
@pytest.mark.parametrize(
    "rows",
    [
        # a malformed non-string before a bad token in a row of known tokens
        [["1", "7/3", "2"], ["7/3", None, "x"]],
        [["1", "2", "3"], ["1", True, "x"], ["x", "1", "2"]],
        # a bad token after a ragged row: the shape check comes first
        [["1", "2"], ["1", "2", "x"], ["x", "1"]],
        [["1", "2"], ["2"], ["1", "x"]],
        # a list (unhashable) entry after known tokens
        [["1", "2", "inf"], ["2", "1", [3]]],
        [["1", "2"], ["2", "1"], ["1", ["2"]], ["x", "1"]],
    ],
)
def test_rows_past_the_lookup_fail_as_per_entry(mode, rows, monkeypatch):
    with modes.arithmetic(mode):
        got = _outcome(lambda: _memo_cost(rows))
        assert got[0] != "ok"
        assert got == _per_entry_matrix(rows, monkeypatch)


@pytest.mark.parametrize("mode", BOTH)
def test_marginal_mass_is_summed_in_engine_form(mode):
    cases = ([F(1, 2), F(1, 2)], ["1/3", "1/6", "1/2"], [F(1, 3), F(1, 4)], [0, 0],
             ["0.1", "0.2", "0.3", "0.4"], [0.1] * 10, [1, 2, F(3, 7)])
    with modes.arithmetic(mode):
        for ws in cases:
            mu = kg.make_marginal(kg.DiscreteSpace(len(ws)), ws)
            if mode == modes.EXACT:
                integral = F(mu.mass).denominator == 1
                assert type(mu.mass) is (int if integral else F)
                assert mu.mass == sum(mu.weights, 0)
            else:
                assert repr(mu.mass) == repr(sum(mu.weights, 0))


# ---------------------------------------------------------------------------
# property: memo reading == per-entry reading
# ---------------------------------------------------------------------------

_TOKENS = ["0", "1", "1.0", "2/2", " 1 ", "7/3", "14/6", "0.5", "1/2", "-0.0", "3",
           "1e-3", "inf", " INF ", "x", "-1", "1/0", "nan"]
_NON_STRINGS = [0, 1, 3, 1.0, 0.0, -0.0, 0.5, F(1, 3), F(7, 3), True, kg.INF]
_entries = st.one_of(st.sampled_from(_TOKENS), st.sampled_from(_NON_STRINGS))


@given(
    mode=st.sampled_from(BOTH),
    width=st.integers(1, 5),
    cells=st.lists(_entries, min_size=1, max_size=25),
)
def test_memo_cost_matrix_matches_per_entry(mode, width, cells):
    rows = [cells[k : k + width] for k in range(0, len(cells) - len(cells) % width, width)]
    rows = rows or [cells[:1]]
    with modes.arithmetic(mode):
        assert _outcome(lambda: _memo_cost(rows)) == _outcome(lambda: _per_entry_cost(rows))


@given(mode=st.sampled_from(BOTH), ws=st.lists(_entries, min_size=1, max_size=12))
def test_memo_marginal_matches_per_entry(mode, ws):
    with modes.arithmetic(mode):
        assert _outcome(lambda: _memo_weights(ws)) == _outcome(lambda: _per_entry_weights(ws))


# ---------------------------------------------------------------------------
# CLI bytes: memo reading == per-entry reading
# ---------------------------------------------------------------------------


def _instance(rng: random.Random, n: int):
    """A square problem and cell set whose tokens repeat, some written in
    two ways (k/t and 2k/2t, 1 and 1.0)."""
    pool = ["0", "1", "1.0", "2", "7/3", "14/6", "1/2", "0.5", "3", "inf", "INF"]
    cost = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        cost[i][i] = rng.choice(["1", "1.0", "2/2"])  # a finite full coupling

    ks = [rng.randint(1, 3) for _ in range(n)]
    t = sum(ks)

    def weights():  # mu and nu weigh alike, so the diagonal is a full coupling
        return [rng.choice([f"{k}/{t}", f"{2 * k}/{2 * t}"]) for k in ks]

    doc = {"nx": n, "ny": n, "mu": weights(), "nu": weights(), "cost": cost}
    cells = {"pairs": sorted(rng.sample([[i, j] for i in range(n) for j in range(n)], n))}
    return doc, cells


def _run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("seed", range(6))
def test_cli_bytes_match_per_entry_reading(seed, tmp_path, capsys, monkeypatch):
    rng = random.Random(seed)
    doc, cells = _instance(rng, rng.randint(3, 7))
    problem, cellset = tmp_path / "p.json", tmp_path / "cells.json"
    problem.write_text(json.dumps(doc))
    cellset.write_text(json.dumps(cells))
    commands = [
        ["solve", str(problem), "--format", "json"],
        ["dual", str(problem), "--relaxed"],
        ["covers", str(problem), "--cells", str(cellset)],
    ]
    argvs = [flag + cmd for cmd in commands for flag in ([], ["--float"])]
    memo = [_run(argv, capsys) for argv in argvs]
    # the reference reads every entry through modes.coerce on its own, so
    # its memo stays empty
    monkeypatch.setattr(core, "_read_once", lambda read, memo: read)
    per_entry = [_run(argv, capsys) for argv in argvs]
    assert memo == per_entry
    assert all(code == 0 for code, _, _ in memo)
