"""Under ``--float`` every value a command prints is a float repr, ``inf``
or ``-inf``: zeros included, so the origin of a profile, a partial value at
mass 0 and the weight of a cover of nothing print as ``0.0``.  Indices are
not values, and neither are the improving ray's directions ``d_phi`` and
``d_psi``, which are exact -1, 0 and 1 in either mode.

The instances are seeded: random grids whose cells may all be forbidden,
so that the profile is its origin alone, with random marginals that may
weigh nothing on some atoms, and cell sets that may be empty or lie on
weightless bands, so that no coupling charges them."""

import json
import random

import pytest

import kantgap as kg
from kantgap import problem_io
from kantgap.cli import main


def _is_float_token(token) -> bool:
    return token in ("inf", "-inf") or (
        isinstance(token, str) and token != "nan" and repr(float(token)) == token
    )


def _values(doc) -> list:
    """The value tokens of a JSON output of ``solve``, ``dual`` or ``covers``."""
    out = []
    for key in ("P", "D", "gap", "objective", "m", "max_mass", "gamma"):
        if key in doc:
            out.append(doc[key])
    for key in ("phi", "psi", "f"):
        out += doc.get(key, [])
    for e, v in doc.get("P_eps", []):
        out += [e, v]
    witness = doc.get("witness") or doc.get("decomposition", {}).get("witness", [])
    out += [m for _, _, m in witness]
    if "improving_ray" in doc:
        out.append(doc["improving_ray"]["slope"])
    return out


def _csv_values(text: str, skip: int = 0) -> list:
    """The numbers of a CSV output, past its header and its first ``skip``
    columns."""
    return [t for line in text.splitlines()[1:] for t in line.split(",")[skip:]]


def _instances(tmp_path):
    rng = random.Random(20261022)
    for k in range(24):
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        density = (0.0, 0.3, 1.0)[k % 3]
        c, mu, nu = kg.random_instance(nx, ny, density, "random", k)
        problem = tmp_path / f"p{k}.json"
        problem.write_text(json.dumps(problem_io.dump_problem(c, mu, nu)))
        if k % 4 == 0:
            pairs = []
        elif k % 4 == 1:  # on the weightless rows, if any: a null set
            pairs = [[i, j] for i, w in enumerate(mu.weights) if w == 0 for j in range(ny)]
        else:
            pairs = [[i, j] for i in range(nx) for j in range(ny) if rng.random() < 0.4]
        cells = tmp_path / f"c{k}.json"
        cells.write_text(json.dumps({"pairs": pairs}))
        yield str(problem), str(cells)


def _run(capsys, *argv) -> tuple[int, str]:
    code = main(["--float", *argv])
    return code, capsys.readouterr().out


def test_float_outputs_print_float_values(tmp_path, capsys):
    tokens = []
    for problem, cells in _instances(tmp_path):
        for argv in (
            ["solve", problem, "--format", "json", "--eps-grid", "0,1/3,1"],
            ["dual", problem],
            ["dual", problem, "--relaxed", "--format", "json"],
            ["covers", problem, "--cells", cells],
        ):
            code, out = _run(capsys, *argv)
            if code == 0:
                tokens += _values(json.loads(out))
        for argv in (["profile", problem], ["sweep", problem, "--m-grid", "0,1,5/2"]):
            code, out = _run(capsys, *argv)
            assert code == 0
            tokens += _csv_values(out)
        for mass in ("0", "1/2", "2"):
            code, out = _run(capsys, "profile", problem, "--at", mass)
            tokens.append(out.strip())
    for scenario in ("diagonal", "band"):
        argv = ["study", "--scenario", scenario, "--n-list", "1,2,3", "--eps-grid", "0,1/n"]
        code, out = _run(capsys, *argv, "--m-grid", "0,1")
        assert code == 0
        tokens += _csv_values(out, skip=1)  # the first column is n
    assert tokens and [t for t in tokens if not _is_float_token(t)] == []


@pytest.mark.parametrize("mode", [[], ["--float"]])
def test_the_improving_ray_directions_stay_exact(tmp_path, capsys, mode):
    problem = tmp_path / "p.json"
    problem.write_text(
        json.dumps({"nx": 2, "ny": 2, "mu": ["1/2"] * 2, "nu": ["1/2"] * 2,
                    "cost": [[0, "inf"], [0, "inf"]]})
    )
    assert main([*mode, "dual", str(problem)]) == 0
    ray = json.loads(capsys.readouterr().out)["improving_ray"]
    assert (ray["d_phi"], ray["d_psi"]) == (["1", "1"], ["-1", "0"])
