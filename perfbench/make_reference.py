"""Write reference.json: the deterministic counts of one pass of each workload.

    python3 perfbench/make_reference.py

The canonical workloads do the same work for every seed, so they get one
entry, "*". random_scan's work depends on the seed; it gets one entry per
seed below RANDOM_SEEDS. Rerun only when a change is meant to alter
the counts (a different search order, a new pruning rule), and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from spans import Tracer  # noqa: E402
from workloads import REFERENCE_COUNTS, WORKLOADS, instances, run_pass  # noqa: E402

RANDOM_SEEDS = 100


def counts(workload: str, seed: int) -> dict[str, int]:
    result = run_pass(instances(workload, seed), Tracer(False))
    if result.failed:
        sys.exit(f"{workload} seed {seed}: {result.failed} instances failed: {result.messages}")
    return {k: result.counts[k] for k in REFERENCE_COUNTS}


def main() -> int:
    table = {w: {"*": counts(w, 0)} for w in WORKLOADS if w != "random_scan"}
    table["random_scan"] = {str(s): counts("random_scan", s) for s in range(RANDOM_SEEDS)}
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
