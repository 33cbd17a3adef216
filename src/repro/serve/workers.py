"""The serve daemon's persistent worker pool.

N worker threads share one :class:`~repro.serve.jobs.JobStore` and one
:class:`~repro.obs.history.RunLedger` (both thread-safe). Each thread
loops: claim the oldest queued job, run the detector, append the result
to the ledger as one ``serve`` run, mark the job ``done``/``failed``.

Each thread owns one **persistent worker process**, the same
:class:`~repro.corpus.scheduler.WorkerHandle` the batch scheduler's
shards use. :meth:`WorkerPool.start` forks all of them before any daemon
thread runs; each job is sent to the thread's worker as a task carrying
its log fields (``job_id``, ``app``, ``worker``), which the worker binds
itself. A job that crashes the analysis or hangs past the budget takes
down that one process: the job fails with ``WorkerDied`` or ``Timeout``,
and the thread forks a replacement and claims the next job. Forks after
start-up therefore happen only on such a respawn. Each worker scrapes
its own metrics registry per job, so scrape windows cannot interleave
across concurrent jobs, while the **on-disk substrate cache is shared**:
a re-submitted app warm-starts from the previous job's substrate bundle
(``pointsto.worklist_iterations == 0``).

:meth:`WorkerPool.stop` is bounded by about twice its grace period: idle
workers are told to exit, busy ones are terminated, anything alive after
the grace period is killed, and only then are the threads joined. A job
cut off this way stays ``running``; :meth:`JobStore.recover` requeues it
at the next start.

Platforms without ``fork`` (and ``--no-isolation``) run jobs in-process
under a pool-wide lock: results stay exact, concurrency and enforced
timeouts are lost, and the daemon says so at startup.
"""

from __future__ import annotations

import dataclasses
import logging
import multiprocessing
import threading
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, Optional

from repro.core import SierraOptions
from repro.obs import log as obs_log
from repro.obs import metrics
from repro.obs.history import KIND_SERVE, LedgerError, RunLedger
from repro.serve.jobs import DONE, FAILED, Job, JobStore

_log = obs_log.get_logger("serve.worker")

#: job-option keys a client may send: the analysis knobs of
#: :class:`SierraOptions` (the server owns cache_dir — a client must not
#: point workers at an arbitrary filesystem path) plus the fault-
#: injection testing aids the corpus driver also exposes
ANALYSIS_JOB_OPTIONS = frozenset(
    f.name for f in dataclasses.fields(SierraOptions)
) - {"cache_dir"}
INJECT_JOB_OPTIONS = frozenset({"inject_fail", "inject_hang"})
ALLOWED_JOB_OPTIONS = ANALYSIS_JOB_OPTIONS | INJECT_JOB_OPTIONS

#: statuses of the per-job analysis record that still count as a served
#: result (degraded = exact results, lost parallelism — same contract as
#: the corpus driver)
_SERVED_STATUSES = ("ok", "degraded")

#: seconds :meth:`WorkerPool.stop` gives workers to exit before killing
#: them, and then gives the threads to finish
STOP_GRACE_S = 2.0

#: request/job latency buckets, in seconds (back-compat alias; the
#: canonical definition lives with the other bucket presets)
LATENCY_BUCKETS = metrics.TIME_BUCKETS


def merge_job_options(
    base: SierraOptions, job_options: Dict[str, object]
) -> Dict[str, object]:
    """The daemon's default options overlaid with one job's overrides,
    as the plain dict the analysis worker takes. Unknown keys
    raise ``ValueError`` (the server maps that to HTTP 400 at submit
    time; here it guards jobs enqueued by other writers)."""
    unknown = set(job_options) - ALLOWED_JOB_OPTIONS
    if unknown:
        raise ValueError(
            "unknown job option(s): " + ", ".join(sorted(repr(k) for k in unknown))
        )
    options_dict = dataclasses.asdict(base)
    for key, value in job_options.items():
        if key in ANALYSIS_JOB_OPTIONS:
            options_dict[key] = value
    return options_dict


class WorkerPool:
    """N daemon threads draining the job store (start/stop lifecycle)."""

    def __init__(
        self,
        store: JobStore,
        ledger: RunLedger,
        options: Optional[SierraOptions] = None,
        workers: int = 2,
        job_timeout_s: float = 120.0,
        isolate: bool = True,
        poll_interval_s: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError(f"worker pool needs >= 1 worker, got {workers}")
        self.store = store
        self.ledger = ledger
        self.options = options or SierraOptions()
        self.workers = workers
        self.job_timeout_s = job_timeout_s
        self.poll_interval_s = poll_interval_s
        self._threads: list = []
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._grace_s = STOP_GRACE_S
        # guards "stopping?" + task dispatch, so stop() never misses a
        # task that a thread sends as the pool stops
        self._dispatch_lock = threading.Lock()
        #: worker name -> its persistent worker process (isolated mode)
        self._handles: Dict[str, object] = {}
        # per-worker heartbeat/claim state: updated on every loop tick
        # while idle, *frozen at claim time* while a job runs — so a
        # wedged worker's heartbeat age grows visibly in /healthz long
        # before the job budget expires
        self._status_lock = threading.Lock()
        self._worker_state: Dict[str, Dict[str, object]] = {}
        # in-process fallback when fork is unavailable: one job at a time
        # (the metrics registry is process-global; interleaved scrape
        # windows would corrupt each other's counters)
        self._inline_lock = threading.Lock()
        self._mp_context = None
        if isolate:
            try:
                self._mp_context = multiprocessing.get_context("fork")
            except ValueError:
                pass
        # instruments are created once, here: the hot paths below only
        # touch pre-bound objects, so no thread holds the registry lock
        # at an inopportune fork moment
        self._jobs_done = metrics.counter(
            "serve.jobs_completed", "serve jobs finished done"
        )
        self._jobs_failed = metrics.counter(
            "serve.jobs_failed", "serve jobs finished failed"
        )
        self._job_seconds = metrics.histogram(
            "serve.job_seconds", "per-job wall clock", buckets=LATENCY_BUCKETS
        )

    @property
    def isolated(self) -> bool:
        return self._mp_context is not None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Fork every worker process, then start the threads: the forks
        happen before any thread of this pool (or of the daemon, which
        starts its other threads after this) exists."""
        if self._mp_context is not None:
            from repro.corpus.scheduler import WorkerHandle

            for i in range(self.workers):
                handle = WorkerHandle(self._mp_context, i)
                handle.spawn()
                self._handles[f"worker-{i}"] = handle
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._loop, args=(f"worker-{i}",), daemon=True,
                name=f"repro-serve-{i}",
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, grace_s: float = STOP_GRACE_S) -> None:
        """Shut down within about ``2 * grace_s``. Idle workers are told
        to exit; busy ones are terminated, and killed if still alive after
        ``grace_s``. Then the threads get ``grace_s`` to finish. A job cut
        off here is left ``running`` for :meth:`JobStore.recover`."""
        self._grace_s = grace_s
        with self._dispatch_lock:
            self._stop.set()
            busy = [h.proc for h in self._handles.values() if h.busy]
        self._wake.set()  # idle threads wake, stop their workers, exit
        busy = [proc for proc in busy if proc is not None]
        # signals and sentinels only: the owning threads do the reaping
        for proc in busy:
            proc.terminate()
        deadline = time.monotonic() + grace_s
        while busy and time.monotonic() < deadline:
            ready = _conn_wait(
                [p.sentinel for p in busy], deadline - time.monotonic()
            )
            busy = [p for p in busy if p.sentinel not in ready]
        for proc in busy:
            proc.kill()
        deadline = time.monotonic() + grace_s
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        for i, thread in enumerate(self._threads):
            proc = getattr(self._handles.get(f"worker-{i}"), "proc", None)
            if thread.is_alive() and proc is not None:
                proc.kill()  # its thread is wedged; do not leave the child
        self._threads = []

    def kick(self) -> None:
        """Wake sleeping workers (called on every submission)."""
        self._wake.set()

    # -- heartbeats ----------------------------------------------------
    def _beat(self, worker_name: str, busy: bool, job_id: Optional[str] = None) -> None:
        with self._status_lock:
            state = self._worker_state.setdefault(
                worker_name, {"jobs_finished": 0}
            )
            state["busy"] = busy
            state["job_id"] = job_id
            state["heartbeat_monotonic"] = time.monotonic()
            if not busy and state.get("_was_busy"):
                state["jobs_finished"] = int(state.get("jobs_finished", 0)) + 1
            state["_was_busy"] = busy

    def worker_status(self) -> list:
        """Per-worker liveness for ``/healthz`` and the sampler:
        ``heartbeat_age_s`` (frozen while a job runs — growth == stall),
        busy flag, the claimed ``job_id``, jobs finished so far."""
        now = time.monotonic()
        with self._status_lock:
            out = []
            for name in sorted(self._worker_state):
                state = self._worker_state[name]
                out.append(
                    {
                        "worker": name,
                        "busy": bool(state.get("busy")),
                        "job_id": state.get("job_id"),
                        "heartbeat_age_s": round(
                            now - float(state.get("heartbeat_monotonic", now)), 3
                        ),
                        "jobs_finished": int(state.get("jobs_finished", 0)),
                    }
                )
        return out

    # -- the loop ------------------------------------------------------
    def _loop(self, worker_name: str) -> None:
        handle = self._handles.get(worker_name)
        self._beat(worker_name, busy=False)
        while not self._stop.is_set():
            try:
                job = self.store.claim(worker_name)
            except LedgerError:
                # the store went away under us (daemon shutting down,
                # ledger file unlinked) — nothing sane left to do here
                break
            if job is None:
                self._beat(worker_name, busy=False)
                self._wake.wait(self.poll_interval_s)
                self._wake.clear()
                continue
            self._beat(worker_name, busy=True, job_id=job.job_id)
            obs_log.event(
                _log, "job.claimed", job_id=job.job_id, app=job.app,
                worker=worker_name,
            )
            try:
                self._run_job(job, worker_name, handle)
            except Exception as exc:  # noqa: BLE001 — the thread must survive
                try:
                    self.store.finish(
                        job.job_id,
                        FAILED,
                        error={"type": type(exc).__name__, "message": str(exc)},
                    )
                except LedgerError:
                    pass
                self._jobs_failed.inc()
                obs_log.event(
                    _log, "job.failed", level=logging.WARNING,
                    job_id=job.job_id, app=job.app, worker=worker_name,
                    error_type=type(exc).__name__, error=str(exc),
                )
            finally:
                self._beat(worker_name, busy=False)
        if handle is not None:
            handle.stop(self._grace_s)

    def _run_job(self, job: Job, worker_name: str, handle) -> None:
        from repro.corpus.driver import _run_one_inline
        from repro.corpus.scheduler import WorkItem

        options_dict = merge_job_options(self.options, job.options)
        inject_fail = bool(job.options.get("inject_fail"))
        inject_hang_s = (
            self.job_timeout_s + 30.0 if job.options.get("inject_hang") else 0.0
        )
        fields = {"job_id": job.job_id, "app": job.app, "worker": worker_name}
        t0 = time.perf_counter()
        if handle is not None:
            item = WorkItem(
                index=0, name=job.app,
                inject_fail=inject_fail, inject_hang_s=inject_hang_s,
            )
            with self._dispatch_lock:
                if self._stop.is_set():
                    return  # claimed as the pool stopped: left for recover()
                handle.send(item, options_dict, self.job_timeout_s, log=fields)
            record = handle.result()
            with self._dispatch_lock:
                if self._stop.is_set():
                    if (record.error or {}).get("type") == "WorkerDied":
                        return  # stop() ended the worker: left for recover()
                else:
                    handle.spawn()  # respawn a dead or timed-out worker now
        else:
            with self._inline_lock, obs_log.bind(**fields):
                record = _run_one_inline(
                    job.app, options_dict, inject_fail, inject_hang_s
                )
        elapsed = time.perf_counter() - t0

        # one ledger run per job: the same row shape `repro analyze
        # --history` writes, so `repro diff <oneshot> <serve-job>` proves
        # (or refutes) serve/CLI equivalence with no special casing
        run_id = self.ledger.begin_run(
            KIND_SERVE,
            options_dict,
            meta={"app": job.app, "job_id": job.job_id, "worker": worker_name},
        )
        self.ledger.record_app(
            run_id,
            job.app,
            status=record.status,
            elapsed_s=record.elapsed_s,
            stages=record.stages,
            metrics=record.metrics,
            races=record.races,
        )
        if record.status in _SERVED_STATUSES:
            self.store.finish(job.job_id, DONE, run_id=run_id, elapsed_s=elapsed)
            self._jobs_done.inc()
            obs_log.event(
                _log, "job.done", job_id=job.job_id, app=job.app,
                worker=worker_name, run_id=run_id,
                elapsed_s=round(elapsed, 4), races=len(record.races or ()),
            )
        else:
            error = record.error or {
                "type": "AnalysisFailed", "message": record.status,
            }
            self.store.finish(
                job.job_id,
                FAILED,
                run_id=run_id,
                error=error,
                elapsed_s=elapsed,
            )
            self._jobs_failed.inc()
            obs_log.event(
                _log, "job.failed", level=logging.WARNING,
                job_id=job.job_id, app=job.app, worker=worker_name,
                run_id=run_id, elapsed_s=round(elapsed, 4),
                error_type=error.get("type"), error=error.get("message"),
            )
        self._job_seconds.observe(elapsed)
