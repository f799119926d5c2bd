"""Command-line front end for point-set generation, graph export, formula
tables, exact solves, constructive colorings, verification, and sweeps.

Exit codes: 0 success or confirmed property, 1 property violation or
counterexample found, 2 usage error, 3 indeterminate (a solve's budget or the
conjecture scan's rejection-sampling attempts ran out).
All diagnostics go to stderr; machine-readable results go to --out or stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import partial
from pathlib import Path

from .coloring import coloring_to_json, load_coloring, verify_coloring, verify_report_to_json
from .disjointness import build_graph, export_graph
from .formulas import double_chain_chi, formula_table
from .experiments import (conjecture_scan, construct_double_chain_coloring, convex_sweep,
                          double_chain_sweep, singleton_class_check)
from .geometry import gen_convex, gen_double_chain, load_points, pointset_to_json
from .solver import chromatic_number_exact

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


def _emit_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit_text(json.dumps(obj, indent=2) + "\n", out)


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_gen(args) -> int:
    if args.n is not None and (args.k is not None or args.l is not None):
        _note("gen takes either --n (convex) or --k/--l (double chain), not both")
        return EXIT_USAGE
    if args.n is not None:
        ps = gen_convex(args.n)
        desc = f"convex n={args.n}"
    elif args.k is not None and args.l is not None:
        ps = gen_double_chain(args.k, args.l)
        desc = f"double chain k={args.k}, l={args.l}"
    else:
        _note("gen needs --n or both --k and --l")
        return EXIT_USAGE
    _emit_json(pointset_to_json(ps), args.out)
    _note(f"generated {desc}: {ps.n} points")
    return EXIT_OK


def _cmd_graph(args) -> int:
    ps = load_points(args.points)
    g = build_graph(ps)
    _emit_text(export_graph(g, args.format).decode("ascii"), args.out)
    _note(f"built disjointness graph: {g.n_vertices} vertices, {g.edge_count} edges")
    return EXIT_OK


def _cmd_formulas(args) -> int:
    _emit_text(_csv_text(["n", "g", "f"], formula_table(args.n)), args.out)
    _note(f"formula table for n = 1..{args.n}")
    return EXIT_OK


def _cmd_chi(args) -> int:
    ps = load_points(args.points)
    result = chromatic_number_exact(build_graph(ps), max_nodes=args.max_nodes)
    _emit_json({**vars(result), "witness": coloring_to_json(result.witness)}, args.out)
    if not result.is_exact:
        _note(f"budget exhausted after {result.nodes} nodes; "
              f"chi is in [{result.lower_bound}, {result.upper_bound}]")
        return EXIT_INDETERMINATE
    _note(f"chi = {result.chi} ({result.nodes} nodes, {result.ms:.1f} ms)")
    return EXIT_OK


def _cmd_color(args) -> int:
    coloring = construct_double_chain_coloring(args.k, args.l)
    _emit_json(coloring_to_json(coloring), args.out)
    predicted = double_chain_chi(args.k, args.l)
    _note(f"constructed proper coloring of the ({args.k}, {args.l}) double chain "
          f"with {coloring.color_count} colors (predicted optimum {predicted})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    ps = load_points(args.points)
    coloring = load_coloring(args.coloring)
    report = verify_coloring(build_graph(ps), coloring)
    _emit_json(verify_report_to_json(report), args.out)
    if report.proper:
        _note(f"coloring is proper ({coloring.color_count} colors)")
        return EXIT_OK
    _note(f"coloring is NOT proper: {len(report.violations)} violating pairs, "
          f"first {list(report.violations[0])}")
    return EXIT_VIOLATION


def _cmd_sweep(args) -> int:
    if args.convex:
        rows, names, law = convex_sweep(args.max_sum), ["n"], "chi = f(n)"
    else:
        rows, names, law = double_chain_sweep(args.max_sum), ["k", "l"], "chi = k + f(l)"
    table = [[*r.point, r.result.chi, r.expected, str(r.match).lower()] for r in rows]
    _emit_text(_csv_text([*names, "chi", "expected", "match"], table), args.out)
    bad = [r for r in rows if not r.match]
    if bad:
        where = ", ".join(f"{name}={x}" for name, x in zip(names, bad[0].point))
        _note(f"{len(bad)} grid points disagree with the prediction, first at ({where})")
        return EXIT_VIOLATION
    _note(f"all {len(rows)} grid points match {law}")
    return EXIT_OK


def _cmd_prop4(args) -> int:
    holds = singleton_class_check(args.n)
    _emit_json({"n": args.n, "holds": holds}, args.out)
    if holds:
        _note(f"every optimal coloring of the convex {args.n}-point graph has "
              f"at most one single-segment class")
        return EXIT_OK
    _note(f"found an optimal coloring with two single-segment classes at n={args.n}")
    return EXIT_VIOLATION


def _cmd_conjecture(args) -> int:
    out_dir = Path(args.out).parent if args.out else None
    report = conjecture_scan(args.n, args.trials, args.seed, out_dir=out_dir)
    _emit_json(vars(report), args.out)
    if report.counterexamples:
        _note(f"counterexample(s) with chi < f({report.n}) = {report.f} archived: "
              f"{', '.join(report.counterexamples)}")
        return EXIT_VIOLATION
    if report.exhausted:
        _note("rejection sampling ran out of attempts before finishing the scan")
        return EXIT_INDETERMINATE
    _note(f"no counterexample in {report.trials} random sets: "
          f"min chi {report.min_chi} >= f({report.n}) = {report.f}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dchain",
        description="Disjointness graphs of double-chain and convex point sets: "
                    "generation, exact coloring, and verification sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    # every command but conjecture, whose --out also places counterexamples
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (default stdout)")
    command = partial(sub.add_parser, parents=[out])

    p = command("gen", help="write a points JSON file (convex or double chain)")
    p.add_argument("--n", type=int, help="convex point count")
    p.add_argument("--k", type=int, help="cup size of a double chain")
    p.add_argument("--l", type=int, help="cap size of a double chain")
    p.set_defaults(func=_cmd_gen)

    p = command("graph", help="build the disjointness graph of a points file")
    p.add_argument("--points", required=True, help="points JSON file")
    p.add_argument("--format", choices=["dimacs", "json"], default="dimacs")
    p.set_defaults(func=_cmd_graph)

    p = command("formulas", help="CSV table of n, g(n), f(n) for n = 1..N")
    p.add_argument("--n", type=int, required=True, help="table upper bound N")
    p.set_defaults(func=_cmd_formulas)

    p = command("chi", help="exact chromatic number of a points file's graph")
    p.add_argument("--points", required=True, help="points JSON file")
    p.add_argument("--max-nodes", type=int, default=None,
                   help="search node budget; exhaustion exits 3 with bounds only")
    p.set_defaults(func=_cmd_chi)

    p = command("color", help="constructive proper coloring of a double chain")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=_cmd_color)

    p = command("verify", help="check a coloring file against a points file")
    p.add_argument("--points", required=True, help="points JSON file")
    p.add_argument("--coloring", required=True, help="coloring JSON file")
    p.set_defaults(func=_cmd_verify)

    p = command("sweep", help="CSV of exact chi vs k + f(l) over the double-chain grid, "
                              "or vs f(n) over convex n = 4..N with --convex")
    p.add_argument("--max-sum", type=int, required=True,
                   help="largest k + l to test (with --convex, the largest n)")
    p.add_argument("--convex", action="store_true",
                   help="sweep convex n-point sets against f(n) instead")
    p.set_defaults(func=_cmd_sweep)

    p = command("prop4", help="exhaustive single-segment-class check for convex n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_prop4)

    p = sub.add_parser("conjecture", help="randomized scan for chi below f(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="report path; counterexamples land next to it")
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        # every command declares --out: refuse an unwritable one before any work
        if args.out and Path(args.out).is_dir():
            raise ValueError(f"--out {args.out} is a directory")
        if args.out and not Path(args.out).parent.is_dir():
            raise ValueError(f"--out {args.out}: {Path(args.out).parent} is not a directory")
        return args.func(args)
    # RecursionError: JSON input nested deeper than the decoder can follow
    except (ValueError, OSError, RecursionError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
