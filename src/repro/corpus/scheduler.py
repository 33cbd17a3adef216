"""Persistent analysis workers and the sharded work-stealing scheduler.

:class:`WorkerHandle` is the one way whole-app analysis is forked: the
parent's side of a persistent worker process that runs one app at a time
under a wall-clock deadline. The corpus driver's pool (:func:`run_sharded`)
multiplexes ``shards`` handles; each ``repro serve`` worker thread owns
one. The pool feeds its handles from a size-aware plan:

* **Binpacking (LPT):** apps are ranked by predicted cost and assigned
  largest-first to the least-loaded shard, so the expensive tail starts
  early instead of straggling at the end. The driver prices each
  :class:`WorkItem` with :func:`~repro.corpus.families.estimate_cost`,
  blended with observed per-app wall time from the run-history ledger
  when one is attached (:class:`repro.corpus.specs.CalibratedCostModel`)
  — both the bin assignment and the ``--progress`` ETA consume the
  calibrated costs, and a cold ledger falls back to the static estimate.
* **Work stealing:** a shard that drains its own deque steals from the
  *tail* of the most-loaded remaining shard — the cheapest item of the
  busiest bin, the classic steal that keeps the plan's locality while
  fixing its estimation errors.
* **Streaming:** workers ship obs events live through their pipe
  (:class:`_PipeStreamer`) and results as they complete; the
  parent flushes finished apps to the ledger in completion order, so an
  operator tailing the ledger sees progress, not a final dump.
* **Isolation:** per-app wall-clock deadlines are enforced by the
  parent (a stuck worker is killed, the app recorded as ``timeout`` with
  the partial event trail naming the stuck stage, and the shard
  respawned); a crashed worker yields a ``WorkerDied`` error record and a
  fresh process. ``--inject-fail`` / ``--inject-hang`` ride through.

The pool also fixes nested-parallelism oversubscription: with ``P`` shards
each running refutation at ``SierraOptions.parallelism R``, ``P*R``
processes can exceed the machine. :func:`core_budget` divides the cores
across shards (inner parallelism ``max(1, cores // shards)``), and the
driver rewrites the options it hands workers accordingly.

Scheduling state (:class:`WorkPlan`) is pure and process-free, so the
binpacking and steal policy are unit-testable without forking anything.
"""

from __future__ import annotations

import logging
import os
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.corpus.driver import (
    STATUS_ERROR,
    STATUS_TIMEOUT,
    AppRunRecord,
    _error_payload,
    _execute_app,
    _record_kwargs,
)
from repro.obs import log as obs_log
from repro.obs import metrics

_log = obs_log.get_logger("corpus.scheduler")

#: obs-bus event kinds the scheduler emits (unknown to the trace collector,
#: visible to recorders and the log bridge)
EVENT_SHARD_START = "corpus.shard.start"
EVENT_SHARD_STEAL = "corpus.shard.steal"
EVENT_SHARD_FINISH = "corpus.shard.finish"

#: seconds a terminated worker gets before escalating to SIGKILL
_KILL_GRACE_S = 5.0


def available_cores() -> int:
    """Cores this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def core_budget(shards: int, requested: int = 1, cores: Optional[int] = None) -> int:
    """Inner (per-shard) parallelism that keeps ``shards`` workers from
    oversubscribing the machine: ``min(requested, max(1, cores // shards))``.

    ``requested`` is the user's ``SierraOptions.parallelism``; the budget
    never raises it, only caps it.
    """
    cores = available_cores() if cores is None else max(1, int(cores))
    shards = max(1, int(shards))
    requested = max(1, int(requested))
    return max(1, min(requested, cores // shards)) if cores // shards else 1


# ----------------------------------------------------------------------
# the plan: pure scheduling state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkItem:
    """One app to analyze, with its predicted cost and fault injections."""

    index: int  # position in the caller's app list (result ordering)
    name: str
    cost: float = 1.0
    inject_fail: bool = False
    inject_hang_s: float = 0.0
    inject_cache_corrupt: bool = False
    #: internal testing aid: the worker hard-exits before analyzing —
    #: exercises the WorkerDied/respawn path without a real crash
    inject_crash: bool = False


class WorkPlan:
    """LPT binpacking + tail stealing over ``shards`` deques.

    Each shard owns one deque, sorted descending by cost; it consumes from
    the *head* (largest first). An idle shard steals from the *tail* of
    the most-loaded other shard (its cheapest remaining item). All state
    lives here, mutated only by the parent — no locks, no shared memory.
    """

    def __init__(self, items: Sequence[WorkItem], shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.bins: List[List[WorkItem]] = [[] for _ in range(shards)]
        self._loads = [0.0] * shards
        # LPT: largest first into the least-loaded bin. Ties break on the
        # original index so the plan is deterministic for equal costs.
        for item in sorted(items, key=lambda it: (-it.cost, it.index)):
            shard = min(range(shards), key=lambda s: (self._loads[s], s))
            self.bins[shard].append(item)
            self._loads[shard] += item.cost
        self.steals = 0

    def remaining(self) -> int:
        return sum(len(b) for b in self.bins)

    def remaining_cost(self) -> float:
        return sum(self._loads)

    def load_of(self, shard: int) -> float:
        return self._loads[shard]

    def take(self, shard: int) -> Optional[Tuple[WorkItem, Optional[int]]]:
        """Next item for ``shard``: its own head, else a steal.

        Returns ``(item, stolen_from)`` — ``stolen_from`` is ``None`` for
        local work, the victim shard index for a steal — or ``None`` when
        the whole plan is drained.
        """
        if self.bins[shard]:
            item = self.bins[shard].pop(0)
            self._loads[shard] -= item.cost
            return item, None
        victims = [s for s in range(self.shards) if self.bins[s]]
        if not victims:
            return None
        victim = max(victims, key=lambda s: (self._loads[s], -s))
        item = self.bins[victim].pop()  # tail: the victim's cheapest item
        self._loads[victim] -= item.cost
        self.steals += 1
        return item, victim


# ----------------------------------------------------------------------
# progress line
# ----------------------------------------------------------------------
class ProgressLine:
    """A single ``\\r``-rewritten stderr line: done/total, apps/sec, ETA,
    and the apps currently in flight."""

    def __init__(self, total: int, total_cost: float, stream=None) -> None:
        self.total = total
        self.total_cost = max(total_cost, 1e-9)
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.done_cost = 0.0
        self.running: Dict[int, str] = {}  # shard -> app name
        self._t0 = time.perf_counter()
        self._last_len = 0

    def start(self, shard: int, name: str) -> None:
        self.running[shard] = name
        self.render()

    def finish(self, shard: int, name: str, cost: float) -> None:
        self.running.pop(shard, None)
        self.done += 1
        self.done_cost += cost
        self.render()

    def _eta_s(self, elapsed: float) -> Optional[float]:
        if self.done_cost <= 0 or elapsed <= 0:
            return None
        rate = self.done_cost / elapsed
        return (self.total_cost - self.done_cost) / rate if rate > 0 else None

    def render(self) -> None:
        elapsed = time.perf_counter() - self._t0
        apps_per_s = self.done / elapsed if elapsed > 0 else 0.0
        eta = self._eta_s(elapsed)
        eta_part = f" eta {eta:.0f}s" if eta is not None else ""
        names = ", ".join(self.running[s] for s in sorted(self.running))
        if len(names) > 60:
            names = names[:57] + "..."
        line = (
            f"[{self.done}/{self.total}] {apps_per_s:.2f} apps/s{eta_part}"
            + (f" running: {names}" if names else "")
        )
        pad = max(0, self._last_len - len(line))
        self._last_len = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()

    def close(self) -> None:
        if self._last_len:
            self.stream.write("\n")
            self.stream.flush()


# ----------------------------------------------------------------------
# the worker loop (runs in a forked process)
# ----------------------------------------------------------------------
class _PipeStreamer:
    """An obs hook that streams events through the worker's pipe as they
    happen, so a worker killed on timeout still leaves its partial event
    trail in RUN_report.json (showing *where* it was stuck).

    Pid-guarded: the refutation pool's grandchildren inherit the hook
    across ``fork`` but must never write — ``Connection.send`` is not safe
    for concurrent writers. Their spans come back through the chunk
    results and are re-emitted in this process, where the guard passes.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.pid = os.getpid()

    def __call__(self, event: obs.RunEvent) -> None:
        if os.getpid() != self.pid:
            return
        try:
            self.conn.send(("event", event.to_dict()))
        except (BrokenPipeError, OSError):
            pass  # parent gone; the worker is about to die anyway


def _worker_main(conn) -> None:
    """Persistent worker: recv task → analyze → send result, until told
    to stop. Events stream live through the same pipe (duplex); every
    exception becomes an error payload — the process only dies on a
    genuine crash (which the parent detects and records as
    ``WorkerDied``)."""
    streamer = _PipeStreamer(conn)
    obs.add_hook(streamer)
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message[0] != "task":
                break  # ("stop",): return, so at-exit finalizers run
            task = message[1]
            if task["inject_crash"]:
                os._exit(23)
            try:
                # this process was forked before the caller bound its log
                # fields, so the task carries them
                with obs_log.bind(**task["log"]):
                    payload = _execute_app(
                        task["name"],
                        task["options"],
                        task["inject_fail"],
                        task["inject_hang_s"],
                        task["inject_cache_corrupt"],
                    )
            except BaseException as exc:  # noqa: BLE001 — isolation boundary
                payload = _error_payload(exc)
            try:
                conn.send(("result", payload))
            except (BrokenPipeError, OSError):
                break  # parent gone
    finally:
        obs.remove_hook(streamer)
        conn.close()


def _stuck_stage(events: List[Dict[str, object]]) -> Optional[str]:
    """The innermost stage/span still open at the end of a partial event
    stream — where a timed-out worker was when it was killed."""
    stack: List[str] = []
    for event in events:
        kind = event.get("kind")
        if kind in (obs.STAGE_START, obs.SPAN_START):
            stack.append(str(event.get("stage")))
        elif kind in (obs.STAGE_END, obs.SPAN_END) and stack:
            stack.pop()
    return stack[-1] if stack else None


# ----------------------------------------------------------------------
# the parent-side handle
# ----------------------------------------------------------------------
#: one fork at a time: a worker forked while another handle holds both
#: ends of its new pipe would keep that pipe open, hiding the other
#: worker's death from the parent
_SPAWN_LOCK = threading.Lock()


class WorkerHandle:
    """The parent's side of one persistent worker process — the only way
    whole-app analysis is forked.

    The batch scheduler multiplexes several handles with
    ``multiprocessing.connection.wait``; each serve worker thread owns
    one. A handle runs one :class:`WorkItem` at a time under a wall-clock
    deadline and turns every way the item can end into one record: the
    worker's result, ``timeout`` (worker killed, stuck stage named) or a
    ``WorkerDied`` error. A killed or dead worker is reaped on the spot;
    :meth:`send` forks its replacement.

    A handle belongs to one thread. The only call another thread may make
    is ``proc.terminate()`` / ``proc.kill()``, which send a signal and
    reap nothing.
    """

    def __init__(self, mp_context, index: int = 0) -> None:
        self.mp_context = mp_context
        self.index = index
        self.proc = None
        self.conn = None
        self.item: Optional[WorkItem] = None
        self.timeout_s = 0.0
        self.started = 0.0
        self.deadline = 0.0
        self.events: List[Dict[str, object]] = []

    @property
    def busy(self) -> bool:
        return self.item is not None

    def spawn(self) -> None:
        """Fork the worker process, unless one is already running."""
        if self.proc is not None:
            if self.proc.exitcode is None:
                return
            self._reap()  # died while idle
        with _SPAWN_LOCK:
            parent_conn, child_conn = self.mp_context.Pipe(duplex=True)
            # NOT daemonic: a daemonic worker could not fork the
            # refutation pool. Every exit path reaps it explicitly instead.
            self.proc = self.mp_context.Process(
                target=_worker_main, args=(child_conn,),
                name=f"repro-worker-{self.index}",
            )
            self.proc.start()
            child_conn.close()  # the pipe must EOF when the worker dies
        self.conn = parent_conn

    def send(
        self,
        item: WorkItem,
        options_dict: Dict[str, object],
        timeout_s: float,
        log: Optional[Dict[str, object]] = None,
    ) -> None:
        """Start ``item`` under a ``timeout_s`` budget. ``log`` holds the
        fields the worker binds on every log line of the analysis."""
        self.spawn()
        self.item = item
        self.events = []
        self.timeout_s = timeout_s
        self.started = time.perf_counter()
        self.deadline = self.started + timeout_s
        task = {
            "name": item.name,
            "options": options_dict,
            "inject_fail": item.inject_fail,
            "inject_hang_s": item.inject_hang_s,
            "inject_cache_corrupt": item.inject_cache_corrupt,
            "inject_crash": item.inject_crash,
            "log": dict(log or {}),
        }
        try:
            self.conn.send(("task", task))
        except OSError:
            pass  # died just now: the next poll() records WorkerDied

    def waitables(self) -> list:
        """What ``connection.wait`` should watch: messages, and the death
        of the worker even while its own children hold the pipe open."""
        return [self.conn, self.proc.sentinel]

    def poll(self) -> Optional[AppRunRecord]:
        """Drain what the worker has sent. Return the item's record once
        it has ended, else ``None``."""
        # read the exit status first: whatever a dead worker wrote before
        # it died is already in the pipe, so the drain below still sees it
        dead = self.proc.exitcode is not None
        while True:
            try:
                if not self.conn.poll(0):
                    break
                kind, body = self.conn.recv()
            except (EOFError, OSError):
                dead = True
                break
            if kind == "event":
                self.events.append(body)
                continue
            record = AppRunRecord(app=self.item.name, **_record_kwargs(body))
            if not record.events:
                record.events = self.events
            return self._settle(record)
        if dead:
            code = self._reap()
            return self._failed(
                STATUS_ERROR,
                "WorkerDied",
                f"worker {self.index} exited with code {code} "
                "before reporting a result",
            )
        if time.perf_counter() >= self.deadline:
            self.proc.terminate()
            self._reap()
            stuck = _stuck_stage(self.events)
            record = self._failed(
                STATUS_TIMEOUT,
                "Timeout",
                f"exceeded the {self.timeout_s:g}s per-app wall-clock budget"
                + (f" (stuck in stage {stuck!r})" if stuck else ""),
            )
            if stuck:
                record.error["stuck_stage"] = stuck
            return record
        return None

    def result(self) -> AppRunRecord:
        """Block until the item in flight ends; return its record."""
        while True:
            record = self.poll()
            if record is not None:
                return record
            _conn_wait(
                self.waitables(),
                timeout=max(0.0, self.deadline - time.perf_counter()),
            )

    def stop(self, grace_s: float = _KILL_GRACE_S) -> None:
        """Retire the worker. An idle one is asked to exit, so it returns
        through the normal ``multiprocessing.Process`` path and its at-exit
        finalizers run; a busy one is terminated. Whatever is still alive
        after ``grace_s`` is killed."""
        if self.proc is None:
            return
        if self.busy:
            self.proc.terminate()
        else:
            try:
                self.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        self._reap(grace_s)
        self.item = None

    def _reap(self, grace_s: float = _KILL_GRACE_S) -> Optional[int]:
        """Join the worker (killing it after ``grace_s``), close the pipe,
        and return the exit code."""
        self.proc.join(grace_s)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        code = self.proc.exitcode
        self.conn.close()
        self.proc = self.conn = None
        return code

    def _failed(self, status: str, kind: str, message: str) -> AppRunRecord:
        record = AppRunRecord(
            app=self.item.name,
            status=status,
            events=self.events,
            error={"type": kind, "message": message, "traceback": ""},
        )
        return self._settle(record)

    def _settle(self, record: AppRunRecord) -> AppRunRecord:
        record.elapsed_s = time.perf_counter() - self.started
        record.isolated = True
        self.item = None
        return record


# ----------------------------------------------------------------------
# the batch pool
# ----------------------------------------------------------------------
def run_sharded(
    mp_context,
    items: Sequence[WorkItem],
    options_dict: Dict[str, object],
    shards: int,
    timeout_s: float,
    on_batch: Optional[Callable[[List[AppRunRecord]], None]] = None,
    progress: Optional[ProgressLine] = None,
) -> List[AppRunRecord]:
    """Run ``items`` through a pool of ``shards`` workers; return their
    :class:`~repro.corpus.driver.AppRunRecord` list **in input order**.

    ``on_batch`` receives every burst of newly finished records (completion
    order) as it happens — the driver points this at the ledger. Faults
    follow the driver's contract: analysis exceptions come back as
    ``error`` payloads from the worker, a killed deadline becomes
    ``timeout`` with the streamed partial events, a dead worker becomes a
    ``WorkerDied`` error and the shard is respawned.
    """
    shards = max(1, min(int(shards), max(1, len(items))))
    plan = WorkPlan(items, shards)
    total = len(items)
    records: Dict[int, AppRunRecord] = {}  # input index -> record
    queue_gauge = metrics.gauge("corpus.queue_depth", "undispatched corpus apps")
    busy_gauge = metrics.gauge("corpus.busy_workers", "shards running an app")
    steal_counter = metrics.counter("corpus.steals", "work-steal dispatches")
    app_seconds = metrics.histogram(
        "corpus.app_seconds", "per-app wall clock", buckets=metrics.TIME_BUCKETS
    )
    queue_gauge.set(plan.remaining())
    busy_gauge.set(0)

    pool = [WorkerHandle(mp_context, i) for i in range(shards)]

    def dispatch(shard: WorkerHandle) -> None:
        """Hand the shard its next item, or stop it when the plan is dry."""
        taken = plan.take(shard.index)
        if taken is None:
            shard.stop()
            return
        item, stolen_from = taken
        if stolen_from is not None:
            steal_counter.inc()
            obs.emit(
                obs.RunEvent(
                    kind=EVENT_SHARD_STEAL,
                    stage=item.name,
                    detail={"shard": shard.index, "victim": stolen_from},
                )
            )
            obs_log.event(
                _log, "shard.steal", app=item.name,
                shard=shard.index, victim=stolen_from,
            )
        shard.send(item, options_dict, timeout_s)
        queue_gauge.set(plan.remaining())
        busy_gauge.set(sum(1 for s in pool if s.busy))
        obs.emit(
            obs.RunEvent(
                kind=EVENT_SHARD_START,
                stage=item.name,
                detail={"shard": shard.index, "cost": item.cost},
            )
        )
        obs_log.event(_log, "app.start", app=item.name, shard=shard.index)
        if progress is not None:
            progress.start(shard.index, item.name)

    def settle(shard: WorkerHandle, item: WorkItem, record: AppRunRecord) -> None:
        """Account one finished item on ``shard``."""
        records[item.index] = record
        app_seconds.observe(record.elapsed_s)
        obs.emit(
            obs.RunEvent(
                kind=EVENT_SHARD_FINISH,
                stage=item.name,
                seconds=record.elapsed_s,
                detail={"shard": shard.index, "status": record.status},
            )
        )
        obs_log.event(
            _log, "app.finish",
            level=logging.INFO if record.ok else logging.WARNING,
            app=item.name, shard=shard.index, status=record.status,
            elapsed_s=round(record.elapsed_s, 4),
            error_type=record.error.get("type") if record.error else None,
        )
        if progress is not None:
            progress.finish(shard.index, item.name, item.cost)

    try:
        for shard in pool:
            dispatch(shard)
        while len(records) < total:
            busy = [s for s in pool if s.busy]
            if not busy:  # defensive: plan drained but records missing
                raise RuntimeError(
                    f"scheduler stalled: {len(records)}/{total} records"
                )
            wait_s = max(0.0, min(s.deadline for s in busy) - time.perf_counter())
            _conn_wait([w for s in busy for w in s.waitables()], timeout=wait_s)
            finished: List[AppRunRecord] = []
            for shard in busy:
                item = shard.item
                record = shard.poll()
                if record is None:
                    continue
                settle(shard, item, record)
                finished.append(record)
                dispatch(shard)
            busy_gauge.set(sum(1 for s in pool if s.busy))
            if finished and on_batch is not None:
                on_batch(finished)
    finally:
        for shard in pool:
            shard.stop()
        queue_gauge.set(0)
        busy_gauge.set(0)
        if progress is not None:
            progress.close()

    return [records[i] for i in sorted(records)]
