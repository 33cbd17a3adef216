"""Host-speed probe: scale measured times to a reference machine speed.

On a shared host the CPU's speed drifts by a quarter and more within
minutes (neighbours on the same cores), and every timing of the program
drifts with it; no statistic taken within one run can remove a slow-down
that covers the whole run. So the benchmark times a fixed piece of
pure-Python work of its own, the *probe*, between units of the program's
work (around every set-up, and before every app of a workload that runs
one app at a time), never while the program runs. A time ``t`` measured around
``start..end`` is reported as ``t * REFERENCE_S / p``, with ``p`` the
median probe time within ``WINDOW_S`` of that span: seconds at the speed
at which the probe takes ``REFERENCE_S``.

The probe is the benchmark's own code, so a change to the program cannot
move it; a slower or faster program moves the scaled times as much as
the raw ones. The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: the probe's median time on the 2-vCPU VM the benchmark was built on;
#: scaled times read as raw times there at its usual speed
REFERENCE_S = 0.017
#: probes this far before or after a span count for it
WINDOW_S = 1.0


def probe_work() -> int:
    """A fixed worklist fixpoint over dicts and sets, the shape of the
    analyzer's propagation loops. Returns the steps taken (always 4191)."""
    nodes, labels = 2000, 64
    succ = {i: ((i * 7 + 3) % nodes, (i * 13 + 5) % nodes, (i + 1) % nodes) for i in range(nodes)}
    facts = {i: {i % labels} for i in range(nodes)}
    work = list(range(nodes))
    steps = 0
    while work:
        node = work.pop()
        steps += 1
        here = facts[node]
        for nxt in succ[node]:
            there = facts[nxt]
            if not here <= there:
                there |= here
                work.append(nxt)
    return steps


class HostSpeed:
    """Probe samples of one run, and the scale factors they give."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (time.time() at start, seconds)

    def probe(self, reps: int) -> None:
        for _ in range(reps):
            at = time.time()
            t0 = time.perf_counter()
            probe_work()
            self.samples.append((at, time.perf_counter() - t0))

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median probe near ``start..end``
        (``time.time()`` values)."""
        near = [s for at, s in self.samples if start - WINDOW_S <= at <= end + WINDOW_S]
        if not near:
            raise RuntimeError(f"no host-speed probe within {WINDOW_S:g} s of a timed span")
        return REFERENCE_S / statistics.median(near)

    def median_s(self) -> float:
        return statistics.median(s for _, s in self.samples)
