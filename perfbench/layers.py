"""Reduce the traced run's span files to the per-layer table.

Every span belongs to the layer named before the ``:`` in its name (the
module it wraps). Time is charged two ways, both of which sum exactly to
the wall they account for:

* **App windows** (oneshot-paper, serve-resubmit). Each app has a window
  from invocation or submission until its report was checked. Every
  instant of the window is charged to the innermost span serving that
  app: the highest role (job child > daemon or CLI process > benchmark),
  then the deepest, then the latest started. Instants no span covers are
  the residual.
* **Lanes** (batch-family). The batch wall times the shard count is the
  lane time. Lane time outside every app record (dispatch gaps, worker
  start and stop, the parent's ledger flush) is the scheduler's; inside
  the records, shard-side spans are charged by plain self time, and the
  rest of the records' time is the residual. Parent-side spans (the
  ledger writes) overlap shard work, so they are listed as ``(parent)``
  rows but kept out of the sum.
"""

from __future__ import annotations

import glob
import json
import os
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

from spans import ROLE_RANK

#: layer rows of the table, in pipeline order
LAYERS = (
    "cli",
    "corpus.synth",
    "core.detector",
    "core.harness",
    "core.extract",
    "core.hb",
    "core.races",
    "core.refute",
    "core.provenance",
    "core.prioritize",
    "cache",
    "obs.history",
    "corpus.scheduler",
    "serve",
)


class Span:
    __slots__ = ("pid", "role", "id", "name", "start", "end", "parent", "depth",
                 "app", "counts")

    def __init__(self, pid, role, raw) -> None:
        self.pid = pid
        self.role = role
        (self.id, self.name, self.start, self.end, self.parent, self.depth,
         self.app, self.counts) = raw

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def load(span_dir: str, since: float) -> Tuple[List[Span], Dict[str, float]]:
    """Spans that started at or after ``since``, and their summed effort
    counters."""
    spans: List[Span] = []
    counts: Dict[str, float] = defaultdict(float)
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
        for raw in blob["spans"]:
            span = Span(blob["pid"], blob["role"], raw)
            if span.start < since:
                continue
            spans.append(span)
            for key, value in (span.counts or {}).items():
                counts[key] += value
    return spans, dict(counts)


def self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Plain self time per span name: duration minus direct children."""
    spans = list(spans)
    child_time: Dict[Tuple[int, int], float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[(s.pid, s.parent)] += s.seconds
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.seconds - child_time[(s.pid, s.id)]
    return dict(out)


def charge_windows(
    spans: Iterable[Span],
    windows: Iterable[Tuple[str, float, float, List[Span]]],
) -> Tuple[Dict[str, float], float, float]:
    """Innermost charging over app windows ``(app, t0, t1, extra_spans)``.

    Returns (seconds per span name, total window seconds, residual)."""
    by_app: Dict[Optional[str], List[Span]] = defaultdict(list)
    for s in spans:
        by_app[s.app].append(s)
    charged: Dict[str, float] = defaultdict(float)
    total = residual = 0.0
    for app, t0, t1, extra in windows:
        total += t1 - t0
        live = [s for s in by_app.get(app, ()) if s.end > t0 and s.start < t1]
        live += [s for s in extra if s.end > t0 and s.start < t1]
        inner = (max(t0, min(t1, x)) for s in live for x in (s.start, s.end))
        cuts = sorted({t0, t1, *inner})
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            active = [s for s in live if s.start <= mid < s.end]
            if not active:
                residual += hi - lo
                continue
            top = max(active, key=lambda s: (ROLE_RANK[s.role], s.depth, s.start))
            charged[top.name] += hi - lo
    return dict(charged), total, residual


def by_layer(per_name: Dict[str, float]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for name, seconds in per_name.items():
        out[name.split(":", 1)[0]] += seconds
    return dict(out)


def format_table(
    title: str,
    per_layer: Dict[str, float],
    total: float,
    residual: float,
    outside: Optional[Dict[str, float]] = None,
) -> str:
    """The printed layer table: one row per layer plus ``residual``;
    ``outside`` rows overlap the accounted time and are not in the sum."""
    lines = [f"layer table: {title} (accounted {total:.3f} s)"]
    lines.append(f"  {'layer':<26} {'self_s':>10} {'share':>7}")
    for layer in LAYERS:
        seconds = per_layer.get(layer, 0.0)
        share = seconds / total if total else 0.0
        lines.append(f"  {layer:<26} {seconds:>10.4f} {share:>7.1%}")
    share = residual / total if total else 0.0
    lines.append(f"  {'residual':<26} {residual:>10.4f} {share:>7.1%}")
    for layer, seconds in sorted((outside or {}).items()):
        lines.append(f"  {layer + ' (parent)':<26} {seconds:>10.4f} {'overlap':>7}")
    return "\n".join(lines)
