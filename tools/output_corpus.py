"""Record what every benchmark op prints, so that two trees can be compared
byte for byte.

    python3 tools/output_corpus.py TREE OUT.json [--seed N] [--blocks K]

Generates the first K blocks (default 15) of each of the four benchmark
workloads from seed N (default 77) with this checkout's
``perfbench/workloads.py``, writes their problem and cell-set files into a
temporary directory, and runs every op in-process through
``kantgap.cli.main`` imported from ``TREE/src``.  The working directory is
the temporary one and the ops name their files by relative paths, so no
output holds a path that differs between runs.  OUT.json lists, per op, the
workload, block, argv, exit code, stdout and stderr; two trees' files from
the same seed and block count are equal exactly when every op printed the
same bytes and exited alike (``cmp A.json B.json``).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _write_block(dirpath: Path, block, problem_doc, cellset_doc) -> None:
    dirpath.mkdir()
    for name, inst in block.instances.items():
        (dirpath / f"{name}.json").write_text(json.dumps(problem_doc(inst)))
    for name, cells in block.cellsets.items():
        (dirpath / f"{name}.cells.json").write_text(json.dumps(cellset_doc(cells)))


def _argv(op, dirname: str) -> list:
    """The op's argv with its file placeholders as relative paths."""
    out = []
    for token in op.argv:
        if token.startswith("{p:"):
            token = f"{dirname}/{token[3:-1]}.json"
        elif token.startswith("{c:"):
            token = f"{dirname}/{token[3:-1]}.cells.json"
        out.append(token)
    return out


def _run(cli, argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI command; a crash
    is recorded as its exception, not raised."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - the corpus records it
            code = f"crash: {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def corpus(tree: Path, seed: int, blocks: int) -> list:
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS, cellset_doc, problem_doc

    sys.path.insert(0, str(tree / "src"))
    from kantgap import cli

    if not Path(cli.__file__).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"kantgap was imported from {cli.__file__}, not from {tree}/src")
    records = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, workload in WORKLOADS.items():
                for k in range(blocks):
                    block = workload(seed, k)
                    dirname = f"{name}-b{k}"
                    _write_block(Path(dirname), block, problem_doc, cellset_doc)
                    for op in block.ops:
                        argv = _argv(op, dirname)
                        code, out, err = _run(cli, argv)
                        records.append({
                            "workload": name, "block": k, "argv": argv,
                            "exit": code, "stdout": out, "stderr": err,
                        })
        finally:
            os.chdir(cwd)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record the output of every benchmark op.")
    parser.add_argument("tree", type=Path, help="a checkout whose src/ holds kantgap")
    parser.add_argument("out", type=Path, help="the JSON file to write")
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--blocks", type=int, default=15)
    args = parser.parse_args(argv)
    records = corpus(args.tree.resolve(), args.seed, args.blocks)
    doc = {"seed": args.seed, "blocks": args.blocks, "ops": records}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    counts = {}
    for r in records:
        counts[r["workload"]] = counts.get(r["workload"], 0) + 1
    print(f"{len(records)} ops ({', '.join(f'{w} {n}' for w, n in counts.items())})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
