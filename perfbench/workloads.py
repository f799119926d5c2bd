"""The benchmark's workloads: instance lists built from a seed, and one pass
over a list, which runs every instance through `dchain`'s public functions,
checks each result and counts the work done.

Each workload is a closed loop: one instance at a time, the next starting
when the previous one has been checked.

- `exact_grid`: exact chi of every canonical double chain with 1 <= k <= l,
  l >= 3, k + l <= 12, then convex n = 4..13, each against k + f(l) or f(n).
  Almost all of the time is branch-and-bound search, so solver changes show
  here.
- `certify_large`: generate and validate every double chain with
  k <= l <= 40, then certify (k, 12) for k = 1..12 without branch and bound:
  clique and DSATUR bounds, the constructive k + f(12) coloring, its
  verification and a DIMACS export. Geometry and graph building dominate;
  this is the control for solver changes.
- `random_scan`: 2000 seeded random 8-point sets (plus the canonical convex
  and double-chain sets, as `dchain conjecture` does), each solved exactly and
  checked against chi >= f(8). Many tiny solves, so per-call overhead counts.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

from dchain import (
    build_graph,
    chromatic_number_exact,
    clique_lower,
    construct_double_chain_coloring,
    double_chain_chi,
    dsatur_upper,
    export_graph,
    f_of,
    gen_convex,
    gen_double_chain,
    sample_general_position,
    validate_double_chain,
    verify_coloring,
)

from calibrate import INTERVAL_S, Reference
from spans import Tracer

RANDOM_N = 8
RANDOM_SETS = 2000
CERTIFY_CAP = 12

# counts that depend only on the instance list, checked against reference.json
REFERENCE_COUNTS = (
    "solver.nodes",
    "solver.nodes_max",
    "disjointness.pairs",
    "geometry.validate_calls",
    "geometry.sample_attempts",
)


class CheckFailed(Exception):
    """An instance's result disagrees with what the benchmark expects."""


def check(ok: bool, message: str) -> None:
    # explicit raise rather than assert, so the check survives python -O
    if not ok:
        raise CheckFailed(message)


@dataclass
class PassResult:
    wall_s: float
    instance_ms: list[float]
    counts: Counter
    attempted: int
    failed: int
    messages: list[str] = field(default_factory=list)
    ref_times: list[float] = field(default_factory=list)


class Pass:
    """State of one pass: the tracer, the work counters, and the cap cache."""

    def __init__(self, tracer: Tracer) -> None:
        self.tr = tracer
        self.c: Counter = Counter()
        self.caps: dict = {}

    # --- calls into dchain, one per layer function -------------------------

    def gen(self, fn, *args):
        self.c["geometry.gen_calls"] += 1
        return self.tr.call(f"geometry.{fn.__name__}", fn, *args)

    def validate(self, ps) -> None:
        self.c["geometry.validate_calls"] += 1
        report = self.tr.call("geometry.validate_double_chain", validate_double_chain, ps)
        check(report.ok, f"double-chain conditions failed: {report.failed()}")

    def sample(self, rng: random.Random, n: int):
        ps, attempts = self.tr.call("geometry.sample_general_position",
                                    sample_general_position, rng, n)
        self.c["geometry.sample_calls"] += 1
        self.c["geometry.sample_attempts"] += attempts
        check(ps is not None, f"no general-position sample after {attempts} attempts")
        return ps

    def build(self, ps):
        g = self.tr.call("disjointness.build_graph", build_graph, ps)
        self.c["disjointness.build_calls"] += 1
        self.c["disjointness.pairs"] += comb(g.n_vertices, 2)
        return g

    def formula(self, fn, *args) -> int:
        self.c["formulas.calls"] += 1
        return self.tr.call(f"formulas.{fn.__name__}", fn, *args)

    def verify(self, g, coloring) -> None:
        self.c["coloring.verify_calls"] += 1
        self.c["coloring.verify_edges"] += g.edge_count
        report = self.tr.call("coloring.verify_coloring", verify_coloring, g, coloring)
        check(report.proper, f"coloring not proper, e.g. {report.violations[:3]}")

    def exact(self, g):
        """Exact solve of g; in a traced pass the clique and DSATUR presolve
        is also timed as separate calls on the same graph."""
        if self.tr.enabled:
            size, _ = self.tr.call("solver.presolve.clique_lower", clique_lower, g)
            greedy = self.tr.call("solver.presolve.dsatur_upper", dsatur_upper, g)
            self.c["solver.presolve_gap"] += greedy.color_count - size
        r = self.tr.call("solver.chromatic_number_exact", chromatic_number_exact, g)
        self.c["solver.exact_calls"] += 1
        self.c["solver.nodes"] += r.nodes
        self.c["solver.nodes_max"] = max(self.c["solver.nodes_max"], r.nodes)
        if not r.is_exact:
            self.c["solver.indeterminate"] += 1
        check(r.is_exact, f"solve ended {r.status} with bounds [{r.lower_bound}, {r.upper_bound}]")
        return r

    def solve(self, g) -> int:
        """Exact chi of g, with its witness checked and verified."""
        r = self.exact(g)
        check(r.witness.color_count == r.chi,
              f"witness has {r.witness.color_count} colors, chi is {r.chi}")
        self.verify(g, r.witness)
        return r.chi

    def cap_provider(self, cap):
        """Optimal cap coloring, solved once per distinct cap in a pass and
        reused; the constructive coloring verifies it on the cap itself."""
        if cap.points not in self.caps:
            self.caps[cap.points] = self.exact(self.build(cap)).witness
        return self.caps[cap.points]

    # --- per-instance pipelines -------------------------------------------

    def double_chain_exact(self, k: int, l: int) -> None:
        ps = self.gen(gen_double_chain, k, l)
        self.validate(ps)
        chi = self.solve(self.build(ps))
        expected = self.formula(double_chain_chi, k, l)
        check(chi == expected, f"chi(C_{k},{l}) = {chi}, closed form k + f(l) = {expected}")

    def convex_exact(self, n: int) -> None:
        chi = self.solve(self.build(self.gen(gen_convex, n)))
        expected = self.formula(f_of, n)
        check(chi == expected, f"chi(convex {n}) = {chi}, f(n) = {expected}")

    def chain(self, k: int, l: int) -> None:
        self.validate(self.gen(gen_double_chain, k, l))

    def certify(self, k: int, l: int) -> None:
        g = self.build(self.gen(gen_double_chain, k, l))
        expected = self.formula(double_chain_chi, k, l)
        size, _ = self.tr.call("solver.clique_lower", clique_lower, g)
        greedy = self.tr.call("solver.dsatur_upper", dsatur_upper, g)
        self.c["solver.presolve_gap"] += greedy.color_count - size
        check(size <= expected <= greedy.color_count,
              f"C_{k},{l}: need clique {size} <= k + f(l) = {expected} <= dsatur {greedy.color_count}")
        self.c["coloring.construct_calls"] += 1
        coloring = self.tr.call("coloring.construct_double_chain_coloring",
                                construct_double_chain_coloring, k, l, self.cap_provider)
        check(coloring.color_count == expected,
              f"C_{k},{l}: construction used {coloring.color_count} colors, expected {expected}")
        self.verify(g, coloring)
        data = self.tr.call("disjointness.export_graph", export_graph, g, "dimacs")
        self.c["disjointness.export_calls"] += 1
        self.c["disjointness.export_bytes"] += len(data)
        header = f"p edge {g.n_vertices} {g.edge_count}\n".encode("ascii")
        check(data.startswith(header), f"C_{k},{l}: DIMACS header is not {header!r}")

    def random_set(self, rng: random.Random, n: int) -> None:
        chi = self.solve(self.build(self.sample(rng, n)))
        bound = self.formula(f_of, n)
        check(chi >= bound, f"random {n}-point set has chi {chi} < f(n) = {bound}")


WORKLOADS = ("exact_grid", "certify_large", "random_scan")


def instances(workload: str, seed: int) -> list[tuple]:
    """The instance list of one pass; the seed fixes it completely."""
    if workload == "random_scan":
        # one generator per pass, drawn from in list order
        sample_rng = random.Random(seed)
        return ([("convex_exact", RANDOM_N), ("double_chain_exact", RANDOM_N // 2, RANDOM_N // 2)]
                + [("random_set", sample_rng, RANDOM_N)] * RANDOM_SETS)
    if workload == "exact_grid":
        items = [("double_chain_exact", k, l)
                 for k in range(1, 7) for l in range(max(k, 3), 13 - k)]
        items += [("convex_exact", n) for n in range(4, 14)]
    elif workload == "certify_large":
        items = [("chain", k, l) for k in range(1, 41) for l in range(max(k, 3), 41)]
        items += [("certify", k, CERTIFY_CAP) for k in range(1, CERTIFY_CAP + 1)]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    # the seed sets the order of the canonical instances, never the work
    random.Random(seed).shuffle(items)
    return items


def run_pass(items: list[tuple], tracer: Tracer, ref: Reference | None = None) -> PassResult:
    """Run every instance once, checking each; failures are counted, not raised.

    With `ref`, the reference kernel is timed between instances whenever
    INTERVAL_S of work has passed, and once at the end; its time is not
    part of the pass's wall time.
    """
    p = Pass(tracer)
    times: list[float] = []
    ref_times: list[float] = []
    failed = 0
    messages: list[str] = []
    last_ref = float("-inf")
    for idx, (kind, *args) in enumerate(items):
        if ref is not None and perf_counter() - last_ref >= INTERVAL_S:
            ref_times.append(ref.run())
            last_ref = perf_counter()
        tracer.instance = idx
        start = perf_counter()
        try:
            tracer.call("bench.instance", getattr(p, kind), *args)
        except Exception as exc:  # one bad instance must not end the run
            failed += 1
            if len(messages) < 5:
                messages.append(f"instance {idx} {kind}{tuple(a for a in args if isinstance(a, int))}: "
                                f"{type(exc).__name__}: {exc}")
        times.append((perf_counter() - start) * 1000.0)
    if ref is not None:
        ref_times.append(ref.run())
    return PassResult(sum(times) / 1000.0, times, p.c, len(items), failed, messages, ref_times)
