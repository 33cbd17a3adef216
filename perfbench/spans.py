"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps *public* functions of the program under test (see
:func:`install`) and records one span per call: layer name, start, end,
parent span and the app it served. It changes nothing under ``src/``:
wrappers are installed by assigning to module and class attributes, in
the process that will fork the workers, so shard workers and serve job
children inherit them.

Effort counters ride on the span of the call that did the work, so a
reader can keep exactly the spans of one time window. Spans stay in
memory per process and are written to one JSON file per process when it
ends: at interpreter exit (``atexit``)
for plain processes, and through a ``multiprocessing`` finalizer for
forked ``multiprocessing`` children, which leave with ``os._exit`` and so
never run ``atexit``.

Times are ``time.time()`` so spans of different processes, and the serve
daemon's job-row timestamps, share one clock.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import json
import os
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional

#: roles, ranked for innermost charging: when spans of several processes
#: overlap inside one app's window, the deepest role takes the instant
ROLE_RANK = {"bench": 0, "cli": 1, "daemon": 1, "child": 2}


class Tracer:
    """Span and counter buffer of one process (reset in forked children)."""

    def __init__(self, out_dir: str, role: str) -> None:
        self.out_dir = out_dir
        self.role = role
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- per-thread state -----------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_app(self, app: Optional[str]) -> None:
        self._local.app = app

    def app(self) -> Optional[str]:
        return getattr(self._local, "app", None)

    # -- spans ------------------------------------------------------------
    def begin(self, name: str, app: Optional[str] = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [
            next(self._ids),
            name,
            time.time(),
            0.0,
            parent[0] if parent else None,
            len(stack),
            app if app is not None else self.app(),
            None,  # effort counters, filled after the call
        ]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.time()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def add_span(self, name: str, start: float, end: float, app: Optional[str]) -> None:
        """A span measured elsewhere (e.g. an import timed before the
        tracer existed)."""
        self.spans.append([next(self._ids), name, start, end, None, 0, app, None])

    # -- output -----------------------------------------------------------
    def dump(self) -> None:
        if not self.spans:
            return
        path = os.path.join(
            self.out_dir, f"spans-{self.pid}-{uuid.uuid4().hex[:8]}.json"
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "pid": self.pid,
                    "role": self.role,
                    "spans": self.spans,
                },
                fh,
            )
        self.spans = []

    def enable_exit_dump(self) -> None:
        """Write this process's spans when it ends, and each forked
        child's spans when that child ends."""
        atexit.register(self.dump)
        os.register_at_fork(after_in_child=self._after_fork)
        import multiprocessing.util as mp_util

        # runs inside multiprocessing's own after-fork hook, i.e. after it
        # cleared the inherited finalizer registry
        mp_util.register_after_fork(self, Tracer._register_mp_finalizer)

    def _after_fork(self) -> None:
        self._reset()
        self.role = "child"

    def _register_mp_finalizer(self) -> None:
        import multiprocessing.util as mp_util

        mp_util.Finalize(None, self.dump, exitpriority=100)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _metric(name: str) -> float:
    from repro.obs import metrics

    return float(metrics.registry().value(name))


def _wrap(
    tracer: Tracer,
    owner,
    attr: str,
    name: str,
    app_of: Optional[Callable] = None,
    delta: Optional[Dict[str, str]] = None,
    after: Optional[Callable] = None,
    calls: bool = True,
) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``app_of(args, kwargs)`` returns the app the call serves, which becomes
    the thread's current app; ``delta`` maps a counter key to a
    metrics-registry name whose growth across the call is counted;
    ``after(counts, args, result)`` records counts taken from the result;
    ``calls`` counts the call under ``<name>.calls``.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if app_of is not None:
            app = app_of(args, kwargs)
            if app is not None:
                tracer.set_app(str(app))
        before = {key: _metric(metric) for key, metric in (delta or {}).items()}
        span = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(span)
        counts: Dict[str, float] = {}
        if calls:
            counts[name + ".calls"] = 1
        for key, metric in (delta or {}).items():
            counts[key] = _metric(metric) - before[key]
        if after is not None:
            after(counts, args, result)
        span[7] = counts or None
        return result

    setattr(owner, attr, traced)


def _after_harness(counts, args, model) -> None:
    counts["core.harness.rounds"] = model.fixpoint_rounds


def _after_hb(counts, args, shbg) -> None:
    counts["core.hb.edges"] = shbg.hb_edge_count()


def _after_pairs(counts, args, pairs) -> None:
    counts["core.races.racy_pairs"] = len(pairs)


def _after_refute(counts, args, summary) -> None:
    stats = summary.stats()
    counts["core.refute.candidates"] = stats["candidates"]
    counts["core.refute.refuted"] = stats["refuted"]
    counts["core.refute.nodes_expanded"] = stats["nodes_expanded"]
    memo = args[0].memo
    if memo is not None:
        # before flush(), only verdicts loaded from disk are in the memo
        counts["core.refute.memo_hits"] = sum(
            1 for r in summary.results if memo.lookup(r.pair) is not None
        )


def _after_lookup(counts, args, outcome) -> None:
    counts["cache.lookups"] = 1
    counts["cache.hits"] = 1 if outcome is not None and outcome.hit else 0


def _wrap_ledger_batch(tracer: Tracer) -> None:
    """``RunLedger.batch`` is a context manager whose COMMIT happens on
    exit, outside every ``record_app`` call: span the whole block."""
    from repro.obs.history import RunLedger

    original = RunLedger.batch

    @contextlib.contextmanager
    def batch(self):
        span = tracer.begin("obs.history:batch")
        try:
            with original(self) as ledger:
                yield ledger
        finally:
            tracer.end(span)

    RunLedger.batch = batch


def _count_row(counts, args, result) -> None:
    counts["obs.history.rows"] = 1


def _arg(index: int) -> Callable:
    def app_of(args, kwargs):
        return args[index] if len(args) > index else None

    return app_of


def _meta_app(args, kwargs):
    meta = kwargs.get("meta", args[3] if len(args) > 3 else None)
    return meta.get("app") if isinstance(meta, dict) else None


def install(tracer: Tracer, eager: bool = True) -> None:
    """Install every layer wrapper (idempotence is the caller's job).

    ``eager=False`` skips the cache and serve-client layers unless the
    process already imported them, so a one-shot CLI run pays no import
    it would not have made untraced."""
    import sys

    import repro.cli
    import repro.core.detector as detector
    import repro.corpus.families as families
    import repro.obs.history as history
    from repro.core.refute import RefutationEngine
    from repro.obs.history import RunLedger

    _wrap(tracer, repro.cli, "load_app", "corpus.synth", app_of=_arg(0))
    _wrap(tracer, families, "synthesize_family_app", "corpus.synth", calls=False)
    # the detector binds the layer entry points in its own namespace
    _wrap(tracer, detector.Sierra, "analyze", "core.detector")
    _wrap(tracer, detector, "generate_harnesses", "core.harness", after=_after_harness)
    _wrap(
        tracer, detector, "extract_actions", "core.extract",
        delta={"core.extract.pointsto_iterations": "pointsto.worklist_iterations"},
    )
    _wrap(
        tracer, detector, "build_shbg", "core.hb",
        delta={"core.hb.closure_ops": "hb.closure_ops"}, after=_after_hb,
    )
    _wrap(tracer, detector, "collect_accesses", "core.races")
    _wrap(tracer, detector, "find_racy_pairs", "core.races", after=_after_pairs)
    _wrap(tracer, RefutationEngine, "refute_all", "core.refute", after=_after_refute)
    _wrap(tracer, detector, "attach_provenance", "core.provenance")
    _wrap(tracer, detector, "rank_races", "core.prioritize")
    if eager or "repro.cache.substrate" in sys.modules:
        from repro.cache.memo import RefutationMemo
        from repro.cache.substrate import SubstrateCache

        _wrap(tracer, SubstrateCache, "lookup", "cache:lookup", after=_after_lookup)
        _wrap(tracer, SubstrateCache, "save", "cache:save")
        _wrap(tracer, RefutationMemo, "prepare", "cache:lookup")
        _wrap(tracer, RefutationMemo, "flush", "cache:save")
    for attr, app_of in (
        ("begin_run", _meta_app),
        ("record_app", _arg(2)),
        ("record_analysis", _arg(2)),
    ):
        _wrap(tracer, RunLedger, attr, "obs.history", app_of=app_of, after=_count_row)
    _wrap_ledger_batch(tracer)
    # the worker builds each race's ledger row where the report lives
    _wrap(tracer, history, "race_row", "obs.history:row", calls=False)
    if eager or "repro.serve.client" in sys.modules:
        from repro.serve.client import ServeClient

        _wrap(tracer, ServeClient, "submit", "serve:submit", app_of=_arg(1))
        _wrap(tracer, ServeClient, "job", "serve:poll")
        _wrap(tracer, ServeClient, "report", "serve:report")

