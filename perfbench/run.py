"""Benchmark of the dchain package: run one workload for a fixed time, check
every result, and print its metrics.

    python3 perfbench/run.py --workload exact_grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

Run from the repository root; the package is imported from `src/`. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones, measured with tracing off; with `--trace 1` they are the
per-layer ones, from traced passes run alternately with untraced ones.

Times are normalized to a reference host speed: each pass's times are divided
by the pass's slowdown, the trimmed mean time of a fixed reference kernel
(calibrate.py) over its time on the reference host. Raw wall time is printed
beside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "dchain" / "__init__.py").is_file():
    sys.exit(f"error: no dchain package under {SRC}; run from a dchain checkout")
sys.path[:0] = [str(SRC), str(HERE)]

from calibrate import Reference, slowdown  # noqa: E402
from spans import Tracer, highest_percentile, layer_of, percentile, self_times, total_times  # noqa: E402
from workloads import REFERENCE_COUNTS, WORKLOADS, instances, run_pass  # noqa: E402

MIN_ROUNDS = 3  # untraced passes at least, so that wall_s is a median
MIN_TRACED_ROUNDS = 2  # rounds of one untraced and one traced pass
SETUP_REPEATS = 9
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import dchain.cli, workloads; "
               "workloads.instances(sys.argv[3], int(sys.argv[4]))")


def measure_setup(workload: str, seed: int, ref: Reference) -> tuple[float, float]:
    """Median seconds for a fresh interpreter to import dchain (and its CLI)
    and build the instance list, raw and normalized; one unmeasured warm-up,
    then SETUP_REPEATS, each normalized by five reference timings just before it."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed)]
    raw, norm = [], []
    for i in range(SETUP_REPEATS + 1):
        slow = slowdown([ref.run() for _ in range(5)])
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=60)
        if i:
            raw.append(perf_counter() - start)
            norm.append(raw[-1] / slow)
    return statistics.median(raw), statistics.median(norm)


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, ref: Reference):
    """Passes until the next round would end after `seconds`; with tracing,
    each round is an untraced pass followed by a traced one."""
    untraced, traced, tracers = [], [], []
    t0 = perf_counter()
    while True:
        untraced.append(run_pass(instances(workload, seed), Tracer(False), ref))
        if trace:
            tracers.append(Tracer(True))
            traced.append(run_pass(instances(workload, seed), tracers[-1], ref))
        rounds = len(untraced)
        elapsed = perf_counter() - t0
        if rounds >= (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS) \
                and elapsed * (rounds + 1) / rounds > seconds:
            return untraced, traced, tracers


def norm_wall(r) -> float:
    return r.wall_s / slowdown(r.ref_times)


def latency_lines(untraced) -> list[str]:
    """Per-instance latency, normalized, where a run has >= 1000 instances."""
    samples = []
    for r in untraced:
        slow = slowdown(r.ref_times)
        samples += [t / slow for t in r.instance_ms]
    if len(samples) < 1000:
        return [f"  instance latency not reported: {len(samples)} instances, fewer than 1000"]
    p = highest_percentile(len(samples))
    return [f"  instance_ms_p50 = {percentile(samples, 50):.6g} ms (n={len(samples)})",
            f"  instance_ms_p{p:g} = {percentile(samples, p):.6g} ms "
            f"(n={len(samples)}, highest percentile with >= 10 samples beyond)"]


def layer_metrics(result, tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its spans and counters;
    times in ms, normalized by the pass's slowdown."""
    tot = total_times(tracer.spans)
    c = result.counts
    scale = 1000.0 / slowdown(result.ref_times)

    def ms(*names: str) -> float:
        return scale * sum(tot.get(n, 0.0) for n in names)

    def per_s(count: int, msecs: float) -> float:
        return count / (msecs / 1000.0) if msecs else 0.0

    exact_ms = ms("solver.chromatic_number_exact")
    build_ms = ms("disjointness.build_graph")
    presolve_ms = ms("solver.presolve.clique_lower", "solver.presolve.dsatur_upper")
    out = {
        "geometry.gen_ms": ms("geometry.gen_double_chain", "geometry.gen_convex"),
        "geometry.validate_ms": ms("geometry.validate_double_chain"),
        "geometry.sample_ms": ms("geometry.sample_general_position"),
        "geometry.sample_useful_ratio": (c["geometry.sample_calls"] / c["geometry.sample_attempts"]
                                         if c["geometry.sample_attempts"] else 0.0),
        "disjointness.build_ms": build_ms,
        "disjointness.pairs_per_s": per_s(c["disjointness.pairs"], build_ms),
        "disjointness.export_ms": ms("disjointness.export_graph"),
        "solver.exact_ms": exact_ms,
        "solver.nodes_per_s": per_s(c["solver.nodes"], exact_ms),
        "solver.clique_ms": ms("solver.clique_lower", "solver.presolve.clique_lower"),
        "solver.dsatur_ms": ms("solver.dsatur_upper", "solver.presolve.dsatur_upper"),
        "solver.search_ms": exact_ms - presolve_ms,
        "coloring.construct_ms": ms("coloring.construct_double_chain_coloring"),
        "coloring.verify_ms": ms("coloring.verify_coloring"),
        "formulas.ms": ms("formulas.f_of", "formulas.double_chain_chi"),
        "trace.spans": float(len(tracer.spans)),
        # the pass without the presolve calls that only traced passes make
        "trace.wall_s": norm_wall(result) - presolve_ms / 1000.0,
    }
    for name, secs in self_times(tracer.spans).items():
        key = f"{layer_of(name)}.self_ms"
        out[key] = out.get(key, 0.0) + scale * secs
    for name, value in c.items():
        out.setdefault(name, float(value))
    return out


def per_layer(untraced, traced, tracers) -> dict[str, float]:
    """Median over traced passes of each per-layer metric, and the tracing
    overhead: traced minus untraced wall_s."""
    per_pass = [layer_metrics(r, t) for r, t in zip(traced, tracers)]
    out = {n: statistics.median(m.get(n, 0.0) for m in per_pass)
           for n in sorted(set().union(*per_pass))}
    out["trace.overhead_s"] = out.pop("trace.wall_s") - statistics.median(map(norm_wall, untraced))
    return out


def load_reference(workload: str) -> dict[str, dict[str, int]]:
    """Reference counts by seed ("*" when the seed only orders the instances)."""
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]


def compare_counts(results, ref: dict[str, int] | None) -> tuple[int, list[str]]:
    """Compare the deterministic counts of every pass with the first pass and
    with the reference; returns the number of mismatches and a report."""
    first = {k: results[0].counts[k] for k in REFERENCE_COUNTS}
    lines = [f"  {k} = {v}" for k, v in first.items()]
    bad = 0
    for r in results[1:]:
        for k in REFERENCE_COUNTS:
            if r.counts[k] != first[k]:
                bad += 1
                lines.append(f"  COUNT CHANGED BETWEEN PASSES: {k} {first[k]} -> {r.counts[k]}")
    if ref is None:
        lines.append("  no reference counts for this seed")
        return bad, lines
    for k in REFERENCE_COUNTS:
        if first[k] != ref[k]:
            bad += 1
            lines.append(f"  COUNT DIFFERS FROM REFERENCE: {k} = {first[k]}, reference {ref[k]}")
    if not bad:
        lines.append("  all match reference.json")
    return bad, lines


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ref = Reference()
    setup_raw, setup_s = measure_setup(workload, seed, ref)
    untraced, traced, tracers = run_rounds(workload, seed, seconds, trace, ref)
    results = untraced + traced
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for r in results:
        for m in r.messages:
            print(f"FAILED {m}", file=sys.stderr)

    e2e = {
        "wall_s": (statistics.median(map(norm_wall, untraced)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    print(f"workload {workload}, seed {seed}: {len(untraced)} untraced"
          + (f" and {len(traced)} traced" if trace else "") + " passes")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} instances)")
    print(f"  wall_s = {e2e['wall_s'][0]:.6g} s (median of {len(untraced)} passes; raw "
          f"{statistics.median(r.wall_s for r in untraced):.6g} s at host slowdown "
          f"{statistics.median(slowdown(r.ref_times) for r in untraced):.4g})")
    print("  passes (normalized s / raw s / slowdown): " + ", ".join(
        f"{norm_wall(r):.4g} / {r.wall_s:.4g} / {slowdown(r.ref_times):.3g}" for r in untraced))
    print(f"  peak_rss_mb = {e2e['peak_rss_mb'][0]:.6g} MB (ru_maxrss of this process)")
    print(f"  setup_s = {setup_s:.6g} s (median of {SETUP_REPEATS} fresh interpreters; "
          f"raw {setup_raw:.6g} s)")
    print("\n".join(latency_lines(untraced)))
    table = load_reference(workload)
    mismatches, lines = compare_counts(results, table.get("*", table.get(str(seed))))
    print("deterministic counts per pass:")
    print("\n".join(lines))
    if trace:
        layers = per_layer(untraced, traced, tracers)
        layers["bench.count_mismatches"] = float(mismatches)
        print(f"per-layer metrics, median of {len(traced)} traced passes (times in ms):")
        for name, value in layers.items():
            print(f"  {name} = {value:.6g}")
        path = OUT / f"spans_{workload}_seed{seed}.jsonl"
        for t in tracers[1:]:
            tracers[0].spans.extend(t.spans)
        tracers[0].dump(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    return combined


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
