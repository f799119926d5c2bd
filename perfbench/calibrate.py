"""A fixed reference computation, timed between instances to track how fast
the host runs Python at the moment.

The benchmark divides measured times by the reference's time, so a host that
slows down for a while (a shared machine under other load) slows the
reference with it and the ratio holds. The kernel never changes and uses no
`dchain` code, so a change to the package cannot move it: integer geometry
(cross products, as in the predicates) and greedy coloring over bit-row
adjacency (as in the solver), in plain Python.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# seconds of measured work between two timings of the reference
INTERVAL_S = 0.05
# the reference's duration on an otherwise idle 2-core x86-64 VM running
# Python 3.11; normalized times are rescaled to a host of that speed
REFERENCE_S = 0.0015


class Reference:
    """The reference kernel on fixed inputs."""

    def __init__(self) -> None:
        rng = random.Random(20171115)
        self.points = [(rng.randint(0, 10_000), rng.randint(0, 10_000)) for _ in range(24)]
        v = 64
        self.adj = [0] * v
        for a in range(v):
            for b in range(a + 1, v):
                if rng.random() < 0.5:
                    self.adj[a] |= 1 << b
                    self.adj[b] |= 1 << a

    def run(self) -> float:
        """Seconds one run of the kernel takes now."""
        start = perf_counter()
        self._kernel()
        return perf_counter() - start

    def _kernel(self) -> int:
        pts = self.points
        acc = 0
        for i in range(len(pts)):
            px, py = pts[i]
            for j in range(i + 1, len(pts)):
                qx, qy = pts[j]
                for rx, ry in pts:
                    acc += (qx - px) * (ry - py) - (qy - py) * (rx - px) > 0
        adj = self.adj
        v = len(adj)
        colors = [-1] * v
        seen = [0] * v
        for _ in range(v):
            pick, pick_sat = -1, -1
            for u in range(v):
                if colors[u] < 0:
                    s = seen[u].bit_count()
                    if s > pick_sat:
                        pick, pick_sat = u, s
            c = 0
            while seen[pick] >> c & 1:
                c += 1
            colors[pick] = c
            m = adj[pick]
            while m:
                low = m & -m
                seen[low.bit_length() - 1] |= 1 << c
                m ^= low
        return acc + max(colors)


def slowdown(ref_times: list[float]) -> float:
    """How many times slower than the reference host this host ran: the
    reference's mean time, without the slowest and fastest tenth, over
    REFERENCE_S. A mean follows the share of time the host spent slow, which
    is what stretches the work between the timings; a median would jump
    between the fast and the slow state."""
    xs = sorted(ref_times)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut]) / REFERENCE_S
