"""Command-line driver.

Subcommands:

* ``gen``      write a problem JSON from a named scenario
* ``solve``    full-transport value, dual value, gap and witness plan
* ``profile``  mass/cost breakpoint table (CSV)
* ``dual``     dual certificate JSON
* ``sweep``    truncated-value table over constant levels (CSV)
* ``covers``   cover/matching/capacity report for a cell set
* ``study``    refinement study table (CSV)
* ``oracle``   brute-force reference values (debugging aid)

``--float`` (before the subcommand) switches to float arithmetic.  Only
``solve`` and ``dual`` take ``--format {text,json}``: ``solve`` prints
either form, and ``dual`` prints its exit-2 report in either.

Each ``_cmd_*`` returns its output text and writes nothing.  ``main`` alone
writes it, to ``-o FILE`` or to stdout, and maps errors to exit codes: 0 on
success (an infinite transport value is a legitimate answer, reported as
data), 1 on validation errors and failed reads or writes, each reported as
one ``error:`` line on stderr, 2 when ``dual --relaxed`` finds no
finite-cost full coupling, so that the relaxed dual is undefined.  That
exit-2 report is an ``infeasible:`` line on stderr, or with ``--format
json`` an output like any other, written to ``-o`` or stdout.  Outputs are
deterministic for fixed inputs and seeds.

Importing this module loads ``core``, ``errors``, ``flow``, ``modes`` and
``problem_io``, which most commands run; building the parser loads nothing
more.  Each command imports the rest of what it runs when it runs: ``gen``
loads ``scenarios``; ``solve`` and ``dual`` load ``primal`` and ``dual``;
``sweep`` loads ``primal``; ``covers`` loads ``kellerer``; ``study`` loads
``scenarios``, ``primal`` and ``dual``; ``oracle`` loads ``oracle``, and
``kellerer`` too with ``--cover``; ``profile`` loads nothing more.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import modes, problem_io
from .core import _require_probability
from .errors import InputError, NotApplicableError, TransportError
from .flow import _run_ssp, evaluate_profile, solve_profile
from .problem_io import format_number

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INFEASIBLE = 2


def _parse_grid(tokens):
    return [t for t in tokens.split(",") if t]


def _cmd_gen(args) -> str:
    from . import scenarios

    if args.scenario == scenarios.DIAGONAL:
        c, mu, nu = scenarios.example_diagonal(args.n)
    elif args.scenario == scenarios.BAND:
        c, mu, nu = scenarios.closed_inf_band(args.n, args.bandwidth)
    else:  # argparse admits only the three scenarios
        c, mu, nu = scenarios.random_instance(
            args.nx, args.ny, args.inf_density, args.marginals, args.seed
        )
    return json.dumps(problem_io.dump_problem(c, mu, nu), indent=2) + "\n"


def _cmd_solve(args) -> str:
    from .dual import dual_from_run
    from .primal import check_eps, primal_from_run

    c, mu, nu = problem_io.load_problem_file(args.problem)
    eps_grid = [check_eps(t) for t in _parse_grid(args.eps_grid)]
    _require_probability(mu, nu)
    # one engine run: P, P_eps, the dual and the witness all read from it;
    # warm-started unless the partial values need the profile
    run = _run_ssp(c, mu, nu, warm=not eps_grid)
    rep = primal_from_run(run, eps_grid)
    dual = dual_from_run(run)
    feasible = rep.witness is not None
    gap = 0
    if feasible:  # P and D sum in different orders, so float mode compares them
        gap = modes.coerce(0) if modes.eq(rep.value, dual.value) else rep.value - dual.value
    partials = [[format_number(e), format_number(v)] for e, v in rep.partials]
    if args.format == "json":
        doc = {"P": format_number(rep.value), "D": format_number(dual.value)}
        if feasible:
            doc["gap"] = format_number(gap)
            doc["witness"] = problem_io.coupling_entries(rep.witness)
            doc["phi"] = [format_number(v) for v in dual.pair.phi]
            doc["psi"] = [format_number(v) for v in dual.pair.psi]
        if partials:
            doc["P_eps"] = partials
        if dual.ray is not None:
            doc["improving_ray"] = problem_io.improving_ray(dual.ray)
        return json.dumps(doc) + "\n"
    lines = [
        f"P={format_number(rep.value)} D={format_number(dual.value)} "
        f"gap={format_number(gap)}"
    ]
    lines += [f"P_eps[{e}]={v}" for e, v in partials]
    if feasible:
        for (i, j), m in rep.witness.items():
            lines.append(f"pi[{i},{j}]={format_number(m)}")
    return "\n".join(lines) + "\n"


def _cmd_profile(args) -> str:
    c, mu, nu = problem_io.load_problem_file(args.problem)
    profile = solve_profile(c, mu, nu)
    if args.at is not None:
        return f"{format_number(evaluate_profile(profile, args.at))}\n"
    return problem_io.profile_csv(profile)


def _cmd_dual(args) -> str:
    from .dual import dual_value, relaxed_dual_value, verify_feasible

    c, mu, nu = problem_io.load_problem_file(args.problem)
    rep = (relaxed_dual_value if args.relaxed else dual_value)(c, mu, nu)
    doc = problem_io.dual_certificate(rep.pair, rep.value, verify_feasible(rep.pair, c).ok)
    if args.relaxed:
        doc["chargeable"] = sorted([i, j] for i, j in rep.chargeable)
    elif rep.ray is not None:
        doc["improving_ray"] = problem_io.improving_ray(rep.ray)
    return json.dumps(doc) + "\n"


def _cmd_sweep(args) -> str:
    from .primal import constant_truncation_sweep

    c, mu, nu = problem_io.load_problem_file(args.problem)
    grid = _parse_grid(args.m_grid)
    if not grid:
        raise InputError("sweep needs --m-grid")
    rows = constant_truncation_sweep(c, mu, nu, grid)
    return problem_io.sweep_csv(rows)


def _cmd_covers(args) -> str:
    from .kellerer import capacity_value, cover_from_run, decompose_from_run, matching_run

    c, mu, nu = problem_io.load_problem_file(args.problem)
    L = problem_io.load_cellset_file(args.cells, c.nx, c.ny)
    _require_probability(mu, nu)
    # one engine run on L as a cost serves everything but gamma
    run = matching_run(L, mu, nu)
    m_val, cert = cover_from_run(run, L)
    dec = decompose_from_run(run, L)
    doc = {
        "m": format_number(m_val),
        "cover_rows": sorted(cert.rows),
        "cover_cols": sorted(cert.cols),
        "max_mass": format_number(run.shipped),
        "null_for_all_couplings": dec.is_null,
    }
    if mu == nu:  # the capacity's one shared weighting
        gamma, f = capacity_value(L, mu)
        doc["gamma"] = format_number(gamma)
        doc["f"] = [format_number(v) for v in f]
    if dec.is_null:
        doc["decomposition"] = {
            "null_rows": sorted(dec.null_rows),
            "null_cols": sorted(dec.null_cols),
        }
    else:
        doc["decomposition"] = {"witness": problem_io.coupling_entries(dec.witness)}
    return json.dumps(doc) + "\n"


def _cmd_study(args) -> str:
    from .primal import refinement_study
    from .scenarios import family

    fam = family(args.scenario)
    try:
        n_list = [int(t) for t in _parse_grid(args.n_list)]
    except ValueError as exc:
        raise InputError(f"--n-list needs integers: {exc}") from exc
    eps_list = _parse_grid(args.eps_grid)
    m_list = _parse_grid(args.m_grid)
    if not n_list or not eps_list or not m_list:
        raise InputError("study needs --n-list, --eps-grid and --m-grid")
    rows = refinement_study(fam, n_list, eps_list, m_list)
    return problem_io.study_csv(rows)


def _cmd_oracle(args) -> str:
    from .oracle import brute_cover, brute_primal

    c, mu, nu = problem_io.load_problem_file(args.problem)
    if args.cover:
        L = problem_io.load_cellset_file(args.cover, c.nx, c.ny)
        return f"{format_number(brute_cover(L, mu, nu))}\n"
    if args.mass is None:
        raise InputError("oracle needs --mass or --cover")
    return f"{format_number(brute_primal(c, mu, nu, args.mass))}\n"


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and then shared: parsing only
    reads it."""
    parser = argparse.ArgumentParser(
        prog="kantgap",
        description="Exact finite-instance transport duality laboratory.",
    )
    parser.add_argument(
        "--float", dest="mode", action="store_const", const="float", default="exact"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=False):
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        if formats:
            p.add_argument("--format", choices=("text", "json"), default="text")

    g = sub.add_parser("gen", help="generate a problem JSON")
    g.add_argument("--scenario", required=True, choices=("diagonal", "random", "band"))
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--nx", type=int, default=3)
    g.add_argument("--ny", type=int, default=3)
    g.add_argument("--bandwidth", type=int, default=0)
    g.add_argument("--inf-density", type=float, default=0.0)
    g.add_argument("--marginals", choices=("uniform", "random"), default="uniform")
    g.add_argument("--seed", type=int, default=0)
    common(g)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="P, D, gap and a witness plan")
    s.add_argument("problem")
    s.add_argument("--eps-grid", default="",
                   help="also report partial values at these dropped masses")
    common(s, formats=True)
    s.set_defaults(func=_cmd_solve)

    p = sub.add_parser("profile", help="mass/cost breakpoints as CSV")
    p.add_argument("problem")
    p.add_argument("--at", default=None, help="evaluate at one mass instead")
    common(p)
    p.set_defaults(func=_cmd_profile)

    d = sub.add_parser("dual", help="dual certificate JSON")
    d.add_argument("problem")
    d.add_argument("--relaxed", action="store_true",
                   help="constraints only on chargeable cells")
    common(d, formats=True)
    d.set_defaults(func=_cmd_dual)

    w = sub.add_parser("sweep", help="truncated values over constant levels")
    w.add_argument("problem")
    w.add_argument("--m-grid", required=True, help="comma-separated levels")
    common(w)
    w.set_defaults(func=_cmd_sweep)

    k = sub.add_parser("covers", help="cover/matching/capacity report")
    k.add_argument("problem")
    k.add_argument("--cells", required=True, help="cell-set JSON file")
    common(k)
    k.set_defaults(func=_cmd_covers)

    t = sub.add_parser("study", help="refinement study table")
    t.add_argument("--scenario", default="diagonal", choices=("diagonal", "band"))
    t.add_argument("--n-list", required=True)
    t.add_argument("--eps-grid", required=True,
                   help='comma-separated; "1/n" style entries scale with n')
    t.add_argument("--m-grid", required=True)
    common(t)
    t.set_defaults(func=_cmd_study)

    o = sub.add_parser("oracle", help="brute-force reference values")
    o.add_argument("problem")
    o.add_argument("--mass", default=None)
    o.add_argument("--cover", default=None, help="cell-set JSON file")
    common(o)
    o.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = EXIT_OK
    try:
        try:
            with modes.arithmetic(args.mode):
                text = args.func(args)
        except NotApplicableError as exc:
            if getattr(args, "format", "text") != "json":
                sys.stderr.write(f"infeasible: {exc}\n")
                return EXIT_INFEASIBLE
            text, code = json.dumps({"infeasible": str(exc)}) + "\n", EXIT_INFEASIBLE
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:  # looked up now, so that a redirect_stdout around main captures it
            sys.stdout.write(text)
    except (TransportError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    return code

if __name__ == "__main__":
    sys.exit(main())
