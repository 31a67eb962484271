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
"""

import contextlib
import io
import json
import os
import tempfile
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from kantgap import cli

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
