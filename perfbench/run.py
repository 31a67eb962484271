"""kantgap benchmark: seeded CLI workloads, verified outputs, optional tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout and driven in-process
through ``kantgap.cli.main``: one client, one thread, closed loop (each op
starts when the previous one returns).  Inputs are problem and cell-set files
written from ``--seed`` (see workloads.py).  Every output goes through the
independent verifier in verify.py, outside the timed interval.  The run goes
on until ``--seconds`` of wall time have passed and at least ``PREFIX_OPS``
ops have run.  Reported times are normalised by a reference task run between
ops (see reference.py).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end;
with ``--trace 1`` they are per layer (see spans.py and README.md).  The line
before it holds details that are not timings, among them the digest of the
output bytes of the first ``PREFIX_OPS`` ops.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_S, reference_seconds
from spans import CHARGEABLE, ENGINE, LAYERS, LP, Tracer
from verify import Verifier
from workloads import WORKLOADS, cellset_doc, problem_doc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# ops every run completes; counts, digest and per-layer figures cover these
PREFIX_OPS = 100
# set-ups per run; setup_s is their median
SETUP_REPEATS = 5
# stop early, whatever the op count, once a run has taken this long
WALL_CAP_S = 140.0
EXIT_BROKEN = 2


def _die(message: str):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(EXIT_BROKEN)


def import_program():
    """A fresh import of kantgap.cli from the checkout's src/."""
    if not (SRC / "kantgap" / "__init__.py").is_file():
        _die(f"no kantgap sources under {SRC}; run from the root of a kantgap checkout")
    for name in [m for m in sys.modules if m == "kantgap" or m.startswith("kantgap.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("kantgap.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        _die(f"kantgap was imported from {cli.__file__}, not from {SRC}")
    return cli


def write_block(dirpath: Path, block) -> None:
    dirpath.mkdir(parents=True, exist_ok=True)
    for name, inst in block.instances.items():
        (dirpath / f"{name}.json").write_text(json.dumps(problem_doc(inst)))
    for name, cells in block.cellsets.items():
        (dirpath / f"{name}.cells.json").write_text(json.dumps(cellset_doc(cells)))


def resolve(argv, dirpath: Path):
    out = []
    for token in argv:
        if token.startswith("{p:"):
            token = str(dirpath / f"{token[3:-1]}.json")
        elif token.startswith("{c:"):
            token = str(dirpath / f"{token[3:-1]}.cells.json")
        out.append(token)
    return out


def run_op(cli, argv):
    """One CLI command; returns (exit code, stdout text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed op, not a failed run
            rc = f"crash: {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    return rc, out.getvalue(), dt


class Run:
    """Op accounting for one run: verdicts, timings, digest of the prefix."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.verifier = Verifier()
        self.times = []  # op wall seconds, untraced
        self.norm_times = []  # the same, normalised (reference.py)
        self.traced_times = []  # op wall seconds, traced (traced runs only)
        self.op_spans = []  # (first span, end span, scale) per traced op
        self.ref_samples = []
        self.failed = 0
        self.reasons = []
        self.digest = hashlib.sha256()
        self.bytes_out = 0
        self.verify_s = 0.0
        self.infeasible_prefix = 0
        self.block_rates = []  # verified ops per normalised second, per block
        self._ref = None

    def scale(self) -> float:
        """Normalisation factor for the op that just ran: NOMINAL_S over the
        mean of the reference times measured before and after it."""
        before = self._ref if self._ref is not None else reference_seconds()
        self._ref = reference_seconds()
        self.ref_samples.append(self._ref)
        return NOMINAL_S / ((before + self._ref) / 2)

    def blocks(self, block0):
        """(block index, directory, block) for the endless block stream."""
        block_id, block = 0, block0
        while True:
            dirpath = self.workdir / f"b{block_id}"
            if block_id:
                write_block(dirpath, block)
            yield block_id, dirpath, block
            shutil.rmtree(dirpath, ignore_errors=True)
            block_id += 1
            block = self.workload(self.seed, block_id)

    def account(self, block_id, block, op, rc, text) -> None:
        t0 = perf_counter()
        reason = self.verifier.check(
            block_id, op, block.instances.get(op.instance),
            block.cellsets.get(op.instance), rc, text,
        )
        if len(self.times) <= PREFIX_OPS:  # this op is in the prefix
            self.verify_s += perf_counter() - t0
            self.digest.update(f"{len(self.times)}\t{rc}\n".encode())
            self.digest.update(text.encode())
            self.bytes_out += len(text.encode())
            self.infeasible_prefix = self.verifier.infeasible
        if reason is not None:
            self.fail(f"block {block_id} {' '.join(op.argv)}: {reason}")

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)
        sys.stderr.write(f"perfbench: failed op: {reason}\n")


def setup(workload, seed: int, workdir: Path):
    """Import the program, build the first block and write its files, several
    times over.  Returns the program, the block, and the median set-up time
    normalised and as measured."""
    norm, raw = [], []
    ref = reference_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cli = import_program()
        block = workload(seed, 0)
        write_block(workdir / "b0", block)
        dt = perf_counter() - t0
        ref_next = reference_seconds()
        raw.append(dt)
        norm.append(dt * NOMINAL_S / ((ref + ref_next) / 2))
        ref = ref_next
    return cli, block, statistics.median(norm), statistics.median(raw)


def measure(run: Run, cli, block0, seconds: float, start: float) -> None:
    t_loop = perf_counter()
    for block_id, dirpath, block in run.blocks(block0):
        spent, failed_before = 0.0, run.failed
        for op in block.ops:
            rc, text, dt = run_op(cli, resolve(op.argv, dirpath))
            run.times.append(dt)
            run.norm_times.append(dt * run.scale())
            spent += run.norm_times[-1]
            run.account(block_id, block, op, rc, text)
            if _done(len(run.times), t_loop, seconds, start):
                return
        run.block_rates.append((len(block.ops) - (run.failed - failed_before)) / spent)


def measure_traced(run: Run, cli, block0, seconds: float, start: float, tracer):
    """Each op runs twice, untraced and traced, in alternating order; the
    outputs must match.  Returns the span mark and counters at the end of the
    prefix."""
    t_loop = perf_counter()
    prefix = None
    for block_id, dirpath, block in run.blocks(block0):
        for op in block.ops:
            argv = resolve(op.argv, dirpath)
            results = {}
            for traced in ((False, True) if len(run.times) % 2 == 0 else (True, False)):
                if traced:
                    first = tracer.mark()
                    tracer.install()
                try:
                    results[traced] = run_op(cli, argv)
                finally:
                    if traced:
                        tracer.uninstall()
            rc, text, dt = results[False]
            run.times.append(dt)
            run.traced_times.append(results[True][2])
            run.op_spans.append((first, tracer.mark(), run.scale()))
            run.account(block_id, block, op, rc, text)
            if results[True][:2] != (rc, text):
                run.fail(f"{' '.join(op.argv)}: traced output differs from untraced output")
            if len(run.times) == PREFIX_OPS:
                prefix = (tracer.mark(), dict(tracer.counters))
            if _done(len(run.times), t_loop, seconds, start):
                return prefix or (tracer.mark(), dict(tracer.counters))


def _done(n_ops: int, t_loop: float, seconds: float, start: float) -> bool:
    now = perf_counter()
    if now - start >= WALL_CAP_S:
        return True
    return n_ops >= PREFIX_OPS and now - t_loop >= seconds


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: Run, setup_s: float) -> dict:
    times = run.norm_times
    if run.block_rates:
        rate = statistics.median(run.block_rates)
    else:  # stopped by the wall-clock cap inside the first block
        rate = (len(times) - run.failed) / sum(times)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (rate, "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (_p90(times) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(run: Run, tracer: Tracer, mark: int, counters: dict) -> dict:
    n = min(len(run.times), PREFIX_OPS)
    scales = [1.0] * mark
    for first, end, scale in run.op_spans:
        for k in range(first, min(end, mark)):
            scales[k] = scale
    summary = tracer.summary(0, mark, scales)
    names = summary["names"]

    def named(name, key):
        return names.get(name, {}).get(key, 0)

    metrics = {}
    for layer in LAYERS:
        entry = summary["layers"][layer]
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
    engine_runs, engine_s = named(ENGINE, "calls"), named(ENGINE, "s")
    metrics.update({
        "flow.engine_runs": (engine_runs, "count"),
        "flow.engine_runs_per_op": (engine_runs / n, "1/op"),
        "flow.engine_s": (engine_s, "s"),
        "flow.finite_cells": (counters["finite_cells"], "count"),
        "flow.cells_per_engine_s": (
            counters["finite_cells"] / engine_s if engine_s else 0.0, "1/s"),
        "flow.segments": (counters["segments"], "count"),
        "dual.chargeable_s": (named(CHARGEABLE, "s"), "s"),
        "simplex.lp_calls": (named(LP, "calls"), "count"),
        "simplex.lp_rows": (counters["lp_rows"], "count"),
        "simplex.lp_s": (named(LP, "s"), "s"),
        "problem_io.bytes_in": (counters["bytes_in"], "B"),
        "problem_io.bytes_out": (run.bytes_out, "B"),
        "workload.infeasible_share": (run.infeasible_prefix / n, "1"),
        "trace.overhead_frac": (sum(run.traced_times) / sum(run.times) - 1.0, "1"),
        "bench.verify_s": (run.verify_s, "s"),
        "bench.failed_frac": (run.failed / len(run.times), "1"),
    })
    return metrics


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        cli, block0, setup_s, raw_setup_s = setup(workload, args.seed, workdir)
        run = Run(workload, args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            mark, counters = measure_traced(run, cli, block0, args.seconds, start, tracer)
            metrics = per_layer(run, tracer, mark, counters)
            trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(str(trace_path))
        else:
            measure(run, cli, block0, args.seconds, start)
            metrics = end_to_end(run, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(run.times),
        "prefix_ops": min(len(run.times), PREFIX_OPS),
        "prefix_digest": run.digest.hexdigest(),
        "wall_s": round(perf_counter() - start, 3),
        "failures": run.reasons,
        "reference_ms_median": statistics.median(run.ref_samples) * 1e3,
        "raw_setup_s": raw_setup_s,
        "raw_op_ms_p50": statistics.median(run.times) * 1e3,
        "raw_op_ms_p90": _p90(run.times) * 1e3,
    }
    if args.trace:
        details["spans_file"] = str(trace_path.relative_to(ROOT))
        details["unwrapped_missing"] = tracer.missing
    print(json.dumps(details))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": len(run.times),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
