"""Hostile input never escapes ``cli.main`` as a traceback.

One hypothesis test runs the CLI in-process on drawn argv for all eight
subcommands, with and without ``--float``.  The files it names are drawn
too: problem and cell-set documents with wrong types at every key, missing
keys and non-object roots, and raw texts that no JSON writer makes (deep
nesting, ints of thousands of digits, ``1e999999999``, a BOM, duplicate
keys).  Every run must end with exit code 0, 1 or 2, returned or raised as
``SystemExit``, with at most one ``error:`` line on stderr.  Each raw text
also runs, as the problem file or the cell-set file, under every command
that reads one, so that none of them rests on the draw.

Size arguments are drawn small or beyond ``scenarios.MAX_CELLS``: below
the budget a large size is accepted work, which the budget bounds, and a
per-example deadline would only time it.

Long denominators meet a budget too: a file whose costs' common
denominator has more than ``core.MAX_SCALE_BITS`` bits exits 1 before any
network is built, and seeded files below it keep their pinned answers.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kantgap import cli, flow
from kantgap.core import MAX_SCALE_BITS, DiscreteSpace, make_marginal
from kantgap.errors import InputError
from kantgap.flow import optimal_coupling_at
from kantgap.scenarios import example_diagonal

_HUGE = "9" * 5000
_LONG = "x" * 100_000

# number and grid tokens: plain, malformed, unbounded and very long
_TOKENS = st.sampled_from(
    [
        "", "0", "1", "-1", "2", "1/3", "1/0", "0/0", "-1/2", "3/n", "1/n",
        "0.5", "1e-9", "1e999999999", "-1e999999999", "nan", "inf", "-inf",
        "Infinity", "0x10", "1_000", " 1 ", "１", "\x00", ",", ",,", "1,2,",
        "0,1/10,1/3", "1,inf", _HUGE, "1/" + _HUGE, _LONG, "-",
    ]
) | st.text(max_size=12)

# sizes: small, or far beyond the cell budget, or not an int at all
_SIZES = st.sampled_from(
    ["-5", "-1", "0", "1", "2", "3", "5", str(10**7), str(10**30), _HUGE, "1.5", "n", ""]
)

# JSON values of any type, for any key
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**40), 10**40)
    | st.floats()
    | st.text(max_size=8)
    | _TOKENS,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)

# texts that json.dumps never writes
RAW_TEXTS = [
    "",
    "not json",
    "[" * 100_000,
    '{"a":' * 100_000,
    "1e999999999",
    _HUGE,
    '{"nx": ' + _HUGE + "}",
    "\ufeff" + '{"nx": 1, "ny": 1, "mu": [1], "nu": [1], "cost": [[0]]}',
    '{"nx": 1, "nx": 2, "ny": 1, "mu": [1], "nu": [1], "cost": [[0]]}',
    '{"nx": 1, "ny": 1, "mu": [NaN], "nu": [Infinity], "cost": [[-Infinity]]}',
    '{"pairs": [[0, 0]], "pairs": "x"}',
    '"' + _LONG + '"',
    "\x00\xff",
]
_RAW = st.sampled_from(RAW_TEXTS)


@st.composite
def _problems(draw):
    """A well-formed problem on a small grid, with uniform or drawn
    weights, then perhaps one key given a value of the wrong type, one key
    dropped, or the root replaced."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weight = st.sampled_from(["1/3", "1", "0", 1, 0.5, "2/7"])
    cost = st.sampled_from(["0", "1", "inf", "INF", 2, "5/2", 0.25])

    def weights(n):
        return draw(st.just([f"1/{n}"] * n) | st.lists(weight, min_size=n, max_size=n))

    doc = {
        "nx": nx,
        "ny": ny,
        "mu": weights(nx),
        "nu": weights(ny),
        "cost": draw(
            st.lists(st.lists(cost, min_size=ny, max_size=ny), min_size=nx, max_size=nx)
        ),
    }
    how = draw(st.sampled_from(["keep", "keep", "retype", "drop", "root"]))
    if how == "retype":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON)
    elif how == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif how == "root":
        return draw(_JSON)
    return doc


_PAIRS = st.lists(st.lists(st.integers(-2, 5), max_size=3), max_size=6)
_MATRIX = st.lists(st.lists(st.integers(0, 1), max_size=4), max_size=4)
_CELLSETS = (
    st.builds(lambda v: {"pairs": v}, _JSON | _PAIRS)
    | st.builds(lambda v: {"matrix": v}, _JSON | _MATRIX)
    | _JSON
)

# a file argument names one of these, most often the drawn problem: the
# two drawn documents, a missing file, or a directory
_FILES = st.sampled_from(["problem", "problem", "cells", "missing", "dir"])

_OPTIONS = {
    "gen": [
        ("--scenario", st.sampled_from(["diagonal", "random", "band", "nope", ""])),
        ("--n", _SIZES), ("--nx", _SIZES), ("--ny", _SIZES), ("--bandwidth", _SIZES),
        ("--inf-density", _TOKENS), ("--marginals", st.sampled_from(["uniform", "random", "x"])),
        ("--seed", _SIZES),
    ],
    "solve": [("--eps-grid", _TOKENS), ("--format", st.sampled_from(["text", "json", "xml"]))],
    "profile": [("--at", _TOKENS)],
    "dual": [("--relaxed", None), ("--format", st.sampled_from(["text", "json", "csv"]))],
    "sweep": [("--m-grid", _TOKENS)],
    "covers": [("--cells", _FILES)],
    "study": [
        ("--scenario", st.sampled_from(["diagonal", "band", "random"])),
        ("--n-list", st.sampled_from(["1,2", "2", "0", "-3", "1,x", "", str(10**7), _HUGE])),
        ("--eps-grid", _TOKENS), ("--m-grid", _TOKENS),
    ],
    "oracle": [("--mass", _TOKENS), ("--cover", _FILES)],
}
_TAKES_PROBLEM = {"solve", "profile", "dual", "sweep", "covers", "oracle"}


@st.composite
def _argv(draw, paths):
    """argv for one subcommand: a subset of its options in any order (each
    with odds 2 in 3), each with a drawn value, perhaps ``--float`` first
    and a stray token last; file arguments name entries of ``paths``."""

    def value(strategy):
        v = draw(strategy)
        return paths[v] if strategy is _FILES else v

    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = ["--float"] if draw(st.booleans()) else []
    argv.append(command)
    if command in _TAKES_PROBLEM and draw(st.integers(0, 9)):
        argv.append(value(_FILES))
    for name, strategy in draw(st.permutations(_OPTIONS[command])):
        if draw(st.integers(0, 2)):
            argv += [name] if strategy is None else [name, value(strategy)]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(["-o", "--bogus", "extra", "-h", "--output"])))
    return argv


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(
    problem=_problems() | _RAW,
    cells=_CELLSETS | _RAW,
    data=st.data(),
)
def test_hostile_input_exits_0_1_or_2_with_one_error_line(problem, cells, data):
    with tempfile.TemporaryDirectory() as tmp:
        names = ("problem", "cells", "missing")
        paths = {name: os.path.join(tmp, f"{name}.json") for name in names}
        paths["dir"] = tmp
        _write(paths["problem"], problem)
        _write(paths["cells"], cells)
        argv = data.draw(_argv(paths))
        # an output path, if any, lies in the temporary directory: a new
        # file, the directory itself, or a file in a missing directory
        output = data.draw(st.sampled_from([None, "out.txt", "", "missing/out.txt"]))
        if output is not None:
            argv += ["-o", os.path.join(tmp, output)]
        code, err = _run(argv)
    _check(argv, code, err)


def _run(argv):
    """``cli.main(argv)``'s exit code, returned or raised, and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _check(argv, code, err):
    assert code in (0, 1, 2), (argv, code, err[-300:])
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) <= 1, (argv, errors)


_READERS = [
    ["solve", "{p}"],
    ["--float", "solve", "{p}", "--format", "json"],
    ["profile", "{p}"],
    ["dual", "{p}", "--relaxed"],
    ["sweep", "{p}", "--m-grid", "1"],
    ["oracle", "{p}", "--mass", "1"],
    ["covers", "{p}", "--cells", "{c}"],
]
_VALID = {"nx": 1, "ny": 1, "mu": [1], "nu": [1], "cost": [[0]]}


@pytest.mark.parametrize("role", ["problem", "cells"])
@pytest.mark.parametrize("text", range(len(RAW_TEXTS)))
def test_every_raw_text_exits_0_1_or_2_under_every_reader(text, role):
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, f"{name}.json") for name in ("p", "c")}
        raw, valid = ("p", "c") if role == "problem" else ("c", "p")
        _write(files[raw], RAW_TEXTS[text])
        _write(files[valid], _VALID if valid == "p" else {"pairs": [[0, 0]]})
        for argv in _READERS:
            if role == "cells" and argv[0] != "covers":
                continue
            argv = [a.format(**files) for a in argv]
            _check(argv, *_run(argv))


def _reciprocals(n, seed=20):
    """An n x n problem whose costs are 1/q, each q a distinct odd
    300-digit number (the longest plain token), with uniform marginals:
    the common denominator of its costs has about 990 n^2 bits."""
    rng = random.Random(seed)
    qs = []
    while len(qs) < n * n:
        q = rng.randrange(10**299, 10**300) | 1
        if q not in qs:
            qs.append(q)
    cost = [[f"1/{q}" for q in qs[i * n : (i + 1) * n]] for i in range(n)]
    return {"nx": n, "ny": n, "mu": [f"1/{n}"] * n, "nu": [f"1/{n}"] * n, "cost": cost}


def _fractions(n, seed=60):
    """An n x n problem whose costs are p/q with q up to 10**6, with
    uniform marginals: 29,042 bits of common denominator at n = 60."""
    rng = random.Random(seed)
    cost = []
    for _ in range(n):
        row = []
        for _ in range(n):
            q = rng.randint(1, 10**6)
            row.append(f"{rng.randint(0, q)}/{q}")
        cost.append(row)
    return {"nx": n, "ny": n, "mu": [f"1/{n}"] * n, "nu": [f"1/{n}"] * n, "cost": cost}


def _networks_built(monkeypatch):
    """A list that gains an entry each time a ``flow._Network`` is built."""
    built = []
    init = flow._Network.__init__

    def counted(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(flow._Network, "__init__", counted)
    return built


@pytest.mark.parametrize("n", [20, 40])
@pytest.mark.parametrize(
    "argv",
    [["solve"], ["dual", "--relaxed"], ["profile"], ["sweep", "--m-grid", "1"],
     # these read no cost, but the matrix is refused when it is built
     ["covers", "--cells", "{c}"], ["oracle", "--cover", "{c}"]],
)
def test_a_scale_over_the_budget_exits_1_before_any_network(tmp_path, monkeypatch, n, argv):
    path, cells = tmp_path / "p.json", tmp_path / "c.json"
    path.write_text(json.dumps(_reciprocals(n)))
    cells.write_text(json.dumps({"pairs": [[0, 0], [1, 1]]}))
    built = _networks_built(monkeypatch)
    code, err = _run([*(a.format(c=cells) for a in argv), str(path)])
    assert code == 1
    assert err.splitlines() == [
        "error: the numbers' common denominator has more than "
        f"{MAX_SCALE_BITS} bits, the exact engine's budget"
    ]
    assert built == []


# the SHA-256 of ``solve --format json`` on files whose common denominators
# have 99,129 bits (10 x 10 reciprocals) and 29,042 bits (60 x 60 fractions)
_WITHIN_BUDGET = {
    "reciprocals": "bb6a5d1163eb9d162fdab316249013d03b3aa8f697e835ecf8603f7412149648",
    "fractions": "b0e3f56ee75c90407f3dd3828fe5f233fcc15632420b27fc29e7bc98ded1a7f2",
}


@pytest.mark.parametrize("name", sorted(_WITHIN_BUDGET))
def test_a_scale_within_the_budget_answers(tmp_path, monkeypatch, name):
    doc = _reciprocals(10) if name == "reciprocals" else _fractions(60)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    built = _networks_built(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["solve", str(path), "--format", "json"]) == 0
    assert built
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == _WITHIN_BUDGET[name]


def test_the_budget_covers_weights_and_targets():
    """lw follows the same rule as lc: a marginal whose weights' common
    denominator is over the budget is refused when it is built, and so is
    a target mass."""
    big = 3 ** (MAX_SCALE_BITS // 3)  # about 0.53 MAX_SCALE_BITS bits
    with pytest.raises(InputError, match="budget"):
        make_marginal(DiscreteSpace(2), [Fraction(1, big), Fraction(1, big + 2)])
    c, mu, nu = example_diagonal(2)
    with pytest.raises(InputError, match="budget"):
        optimal_coupling_at(c, mu, nu, Fraction(1, big * (big + 2)))
