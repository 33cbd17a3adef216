"""Observability: spans, metrics, trace export, and the run-history stack.

See :mod:`repro.obs.diagnostics` (span/stage/hook bus),
:mod:`repro.obs.metrics` (typed counter/gauge/histogram registry),
:mod:`repro.obs.tracing` (Chrome trace-event export),
:mod:`repro.obs.history` (append-only sqlite run ledger),
:mod:`repro.obs.diffing` (differential run analysis / ``repro diff``),
:mod:`repro.obs.dashboard` (self-contained HTML dashboard),
:mod:`repro.obs.log` (structured JSON event log),
:mod:`repro.obs.telemetry` (Prometheus exposition, ring-buffer sampler,
SLO watchdog), and ``docs/observability.md``.

The submodules every run uses are imported here; the ledger stack
(``history`` with ``sqlite3`` and ``uuid``, ``diffing``, ``dashboard``)
and ``telemetry`` are imported on first attribute access
(``obs.history``, ``from repro.obs import history``), so a one-shot
``repro analyze`` never loads them.
"""

import importlib

from repro.obs import log, metrics, profile, tracing

from repro.obs.diagnostics import (
    DEGRADED,
    Recorder,
    RunEvent,
    SPAN_END,
    SPAN_START,
    STAGE_END,
    STAGE_START,
    Span,
    StageTimer,
    WARNING,
    add_hook,
    emit,
    emit_degraded,
    emit_warning,
    reemit,
    remove_hook,
    set_memory_capture,
    span,
    stage,
)
from repro.obs.tracing import TraceCollector, validate_chrome_trace, validate_trace_file

__all__ = [
    "DEGRADED",
    "Recorder",
    "RunEvent",
    "SPAN_END",
    "SPAN_START",
    "STAGE_END",
    "STAGE_START",
    "Span",
    "StageTimer",
    "TraceCollector",
    "WARNING",
    "add_hook",
    "dashboard",
    "diffing",
    "emit",
    "emit_degraded",
    "emit_warning",
    "history",
    "log",
    "metrics",
    "profile",
    "reemit",
    "remove_hook",
    "set_memory_capture",
    "span",
    "stage",
    "telemetry",
    "tracing",
    "validate_chrome_trace",
    "validate_trace_file",
]

_LAZY_SUBMODULES = frozenset({"dashboard", "diffing", "history", "telemetry"})


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
