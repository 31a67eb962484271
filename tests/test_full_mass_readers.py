"""Entry points that read only full-mass answers agree with each other.

On a finite instance D = D_rel = P, so the relaxed dual is the plain dual:
same pair, same value, feasible on every finite cell.  ``primal_report``
and ``solve`` share one reader, so the library report is what the CLI
prints.
"""

import json

import pytest

import kantgap as kg
from kantgap import modes, problem_io, scenarios
from kantgap.cli import main
from kantgap.errors import NotApplicableError
from kantgap.modes import EXACT, FLOAT, arithmetic

EPS_GRID = "0,1/4"


def _instances():
    """Seeded random instances (random marginals carry zero-weight atoms)
    and staircase and band family members, feasible and infeasible."""
    for seed in range(40):
        nx, ny = 1 + seed % 6, 1 + (seed // 6) % 5
        yield kg.random_instance(nx, ny, (0, 0.2, 0.4)[seed % 3], "random", seed)
    for n in (1, 2, 5, 8):
        yield scenarios.family(scenarios.DIAGONAL)(n)
        yield scenarios.family(scenarios.BAND)(n)


def _cli_json(argv, capsys):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _report_doc(rep, with_partials):
    """The keys of a ``solve --format json`` document a report fixes."""
    doc = {"P": problem_io.format_number(rep.value)}
    if rep.witness is not None:
        doc["witness"] = problem_io.coupling_entries(rep.witness)
    if with_partials:
        doc["P_eps"] = [
            [problem_io.format_number(e), problem_io.format_number(v)]
            for e, v in rep.partials
        ]
    return doc


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_full_mass_readers_agree(mode, tmp_path, capsys):
    flag = ["--float"] if mode == FLOAT else []
    feasible = infeasible = zero_atoms = 0
    with arithmetic(mode):
        for k, (c, mu, nu) in enumerate(_instances()):
            path = tmp_path / f"p{k}.json"
            path.write_text(json.dumps(problem_io.dump_problem(c, mu, nu)))
            # the file reads back as the same instance in this mode
            c, mu, nu = problem_io.load_problem_file(str(path))
            zero_atoms += 0 in mu.weights + nu.weights

            for argv, eps_grid in (([], ()), (["--eps-grid", EPS_GRID], [0, "1/4"])):
                doc = _cli_json(flag + ["solve", str(path), "--format", "json"] + argv, capsys)
                rep = kg.primal_report(c, mu, nu, eps_grid=eps_grid)
                expected = _report_doc(rep, bool(eps_grid))
                assert {key: doc.get(key) for key in expected} == expected
                assert ("witness" in doc) == (rep.witness is not None)
                assert modes.eq(rep.max_mass, kg.max_shippable_mass(c, mu, nu))

            plain = kg.dual_value(c, mu, nu)
            if kg.is_inf(plain.value):
                infeasible += 1
                with pytest.raises(NotApplicableError):
                    kg.relaxed_dual_value(c, mu, nu)
                assert main(flag + ["dual", str(path), "--relaxed"]) == 2
                capsys.readouterr()
                continue
            feasible += 1
            relaxed = kg.relaxed_dual_value(c, mu, nu)
            assert relaxed.pair == plain.pair
            assert relaxed.value == plain.value
            assert modes.eq(relaxed.value, kg.primal_value(c, mu, nu))
            assert relaxed.chargeable == kg.chargeable_cells(c, mu, nu)
            printed = _cli_json(flag + ["dual", str(path), "--relaxed"], capsys)
            assert printed["feasible"] is True
            assert printed == {
                **_cli_json(flag + ["dual", str(path)], capsys),
                "chargeable": sorted([i, j] for i, j in relaxed.chargeable),
            }
    assert feasible >= 20 and infeasible >= 5 and zero_atoms >= 10
