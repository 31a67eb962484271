"""Self-test of the benchmark's verifier and failure accounting.

Runs every op of every workload's first block through the real CLI and
checks that each clean output verifies.  Then it corrupts the outputs and
checks that each corrupted output is counted as a failed op by the same
accounting the benchmark uses (``run.Run.account``).

Run from the root of a checkout:

    python3 perfbench/selftest.py

Exits 0 when every clean output passes and every corruption is caught.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stderr
from fractions import Fraction

from run import OUT, Run, import_program, resolve, run_op, write_block
from verify import EXPECTED_RC
from workloads import WORKLOADS

SEED = 7
NUDGE = Fraction(1, 1000)


def nudge_potential(text, inst):
    """phi of a row the witness charges, raised by 1/1000."""
    doc = json.loads(text)
    if not doc.get("witness"):
        return None
    i = doc["witness"][0][0]
    doc["phi"][i] = str(Fraction(doc["phi"][i]) + NUDGE)
    return json.dumps(doc)


def move_witness_mass(text, inst):
    """Half the mass of one witness cell moved onto another witness cell."""
    doc = json.loads(text)
    w = doc.get("witness")
    if not w or len(w) < 2:
        return None
    half = Fraction(w[0][2]) / 2
    w[0][2] = str(Fraction(w[0][2]) - half)
    w[1][2] = str(Fraction(w[1][2]) + half)
    return json.dumps(doc)


def drop_cover_row(text, inst):
    """A cover row with positive weight removed from the cover."""
    doc = json.loads(text)
    heavy = [r for r in doc["cover_rows"] if inst.mu[r] > 0]
    if not heavy:
        return None
    doc["cover_rows"].remove(heavy[0])
    return json.dumps(doc)


def nudge_relaxed_potential(text, inst):
    """psi of a weighted column of a relaxed dual raised by 1/1000."""
    doc = json.loads(text)
    j = next(j for j, w in enumerate(inst.nu) if w > 0)
    doc["psi"][j] = str(Fraction(doc["psi"][j]) + NUDGE)
    return json.dumps(doc)


def raise_first_truncated_value(text, inst):
    """The first P_trunc of a sweep or study table raised by 1/1000."""
    lines = text.splitlines()
    cells = lines[1].split(",")
    k = 1 if len(cells) == 2 else 5
    cells[k] = str(Fraction(cells[k]) + NUDGE)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def cut_in_half(text, inst):
    """The output truncated mid-way (malformed)."""
    return text[: len(text) // 2]


CORRUPTIONS = {
    "solve": (nudge_potential, move_witness_mass, cut_in_half),
    "dual_relaxed": (nudge_relaxed_potential,),
    "covers": (drop_cover_row, cut_in_half),
    "sweep": (raise_first_truncated_value,),
    "study": (raise_first_truncated_value,),
}
REQUIRED = ("nudge_potential", "move_witness_mass", "drop_cover_row")


def main() -> int:
    cli = import_program()
    workdir = OUT / f"selftest-{os.getpid()}"
    problems = []
    tried = {}
    caught = {}
    try:
        for name, workload in WORKLOADS.items():
            block = workload(SEED, 0)
            dirpath = workdir / name
            write_block(dirpath, block)
            run = Run(workload, SEED, workdir)
            for op in block.ops:
                rc, text, dt = run_op(cli, resolve(op.argv, dirpath))
                run.times.append(dt)
                inst = block.instances.get(op.instance)
                bad_outputs = [(f.__name__, rc, f(text, inst))
                               for f in CORRUPTIONS.get(op.kind, ())]
                bad_outputs.append(("wrong_exit_code", EXPECTED_RC + 1, text))
                before = run.failed
                run.account(0, block, op, rc, text)
                if run.failed != before:
                    problems.append(f"{name}: clean output rejected: {run.reasons[-1]}")
                    continue
                for label, bad_rc, bad in bad_outputs:
                    if bad is None:
                        continue
                    tried[label] = tried.get(label, 0) + 1
                    before = run.failed
                    with redirect_stderr(io.StringIO()):
                        run.account(0, block, op, bad_rc, bad)
                    if run.failed == before + 1:
                        caught[label] = caught.get(label, 0) + 1
                    else:
                        problems.append(f"{name}: {label} on {op.kind} was not counted as failed")
            print(f"{name}: {len(block.ops)} clean ops checked")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label in sorted(tried):
        print(f"corruption {label}: caught {caught.get(label, 0)} of {tried[label]}")
    for label in REQUIRED:
        if not tried.get(label):
            problems.append(f"corruption {label} was never tried")
    for p in problems:
        print(f"PROBLEM: {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
