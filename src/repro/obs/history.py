"""Run-history ledger: an append-only sqlite3 record of analysis runs.

A single run's output answers "what did this run find"; production
operation needs "what *changed* since the last run, and is the pipeline
getting slower" (the diff-based reporting shape RacerD deploys at scale).
This module is the cross-run pillar under that question: every
``--history``-enabled ``repro analyze`` / ``repro corpus-analyze`` /
``repro bench`` appends one run to a stdlib-``sqlite3`` ledger, and
:mod:`repro.obs.diffing` / :mod:`repro.obs.dashboard` read it back.

Per run the ledger records:

* a **run row** — run id, UTC timestamp, run kind, a digest of the
  analysis options (diffing warns when comparing runs whose options
  differ), and free-form metadata;
* one **app row** per analyzed app (plus one ``*`` aggregate row for
  batch runs) — status, elapsed wall clock, per-stage timings, and a
  full metrics-registry scrape;
* one **race row** per ranked race — keyed by the *stable race
  fingerprint* (:func:`repro.core.report.race_fingerprint`), with the
  full report JSON (provenance included) so a dashboard can drill from
  a fingerprint to its evidence tree without re-running the analysis.

The ledger is append-only by convention: nothing in this module updates
or deletes rows, and the diff/dashboard consumers treat it as an event
log. It is also **concurrency-safe**: connections open in WAL mode with
a busy timeout (:func:`connect_ledger`), every write is one explicit
``BEGIN IMMEDIATE`` transaction, and a :class:`RunLedger` instance may
be shared across threads (an internal lock serializes the connection).
Concurrent writers — the corpus fork-pool's per-app rows, the ``repro
serve`` worker pool's per-job runs — queue on the database instead of
dying with ``database is locked``. The db path comes from ``--history <db>`` or the ``REPRO_HISTORY``
environment variable. A file that is not a ledger (corrupt, not sqlite,
wrong tables) raises :class:`LedgerError`, which the CLI maps to exit
code 2 — malformed history must never look like "no regressions".
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import uuid
from contextlib import contextmanager
from datetime import datetime, timezone
from hashlib import sha256
from typing import Dict, List, Optional, Sequence

#: layout version stamped on every run row this code writes
LEDGER_SCHEMA = 1

#: how long a writer waits on a locked database before giving up — long
#: enough to ride out another writer's whole transaction, short enough
#: that a wedged holder still surfaces as an error rather than a hang
LEDGER_BUSY_TIMEOUT_S = 5.0

#: environment fallback for the ledger path (--history wins)
HISTORY_ENV = "REPRO_HISTORY"

#: app name of the aggregate row a batch run writes alongside per-app rows
AGGREGATE_APP = "*"

#: run kinds, for filtering ("bench" runs gate timings, "analyze"/"corpus"
#: runs carry fingerprinted races; "serve" runs are daemon jobs — one run
#: per analysis request, same row shape as "analyze")
KIND_ANALYZE = "analyze"
KIND_CORPUS = "corpus"
KIND_BENCH = "bench"
KIND_SERVE = "serve"


def connect_ledger(
    path: str, timeout_s: float = LEDGER_BUSY_TIMEOUT_S
) -> sqlite3.Connection:
    """Open a ledger-grade sqlite connection: safe for concurrent writers.

    Every connection to a ledger db (the run ledger itself, the serve
    daemon's job store riding in the same file) goes through here so the
    concurrency settings cannot drift apart:

    * **WAL journal mode** — readers never block the writer and vice
      versa; two processes appending runs queue instead of failing;
    * **busy timeout** (sqlite-level *and* the driver-level ``timeout``)
      — a second writer waits out the first's transaction instead of
      raising ``database is locked`` immediately;
    * **``check_same_thread=False``** — the connection may be used from
      worker threads; callers serialize access with their own lock
      (sqlite objects are not internally thread-safe);
    * **autocommit** (``isolation_level=None``) — transactions are
      explicit ``BEGIN IMMEDIATE`` blocks, so a write transaction takes
      the write lock up front and cannot deadlock upgrading a read lock.
    """
    db = sqlite3.connect(
        path,
        timeout=timeout_s,
        check_same_thread=False,
        isolation_level=None,
    )
    db.execute(f"PRAGMA busy_timeout = {int(timeout_s * 1000)}")
    # raises sqlite3.DatabaseError on a file that is not sqlite at all —
    # the caller's "not a usable ledger" path
    db.execute("PRAGMA journal_mode=WAL")
    db.execute("PRAGMA synchronous=NORMAL")
    return db


class LedgerError(Exception):
    """The ledger file is unusable (corrupt db, wrong schema, bad ref)."""


def history_path_from_env(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the ledger path: explicit flag first, then ``REPRO_HISTORY``."""
    if explicit:
        return explicit
    return os.environ.get(HISTORY_ENV) or None


def options_digest(options: Dict[str, object]) -> str:
    """Short stable digest of an options dict (diffing compares these)."""
    canonical = json.dumps(options, sort_keys=True, default=repr)
    return sha256(canonical.encode("utf-8")).hexdigest()[:12]


def new_run_id() -> str:
    """Sortable-by-time, collision-safe run id (``r20260806T120000-3fb2a1``)."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    return f"r{stamp}-{uuid.uuid4().hex[:6]}"


_TABLES = """
CREATE TABLE IF NOT EXISTS runs (
    run_id         TEXT PRIMARY KEY,
    ts_utc         TEXT NOT NULL,
    kind           TEXT NOT NULL,
    schema         INTEGER NOT NULL,
    options_digest TEXT NOT NULL,
    options_json   TEXT NOT NULL,
    meta_json      TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS app_runs (
    run_id       TEXT NOT NULL REFERENCES runs(run_id),
    app          TEXT NOT NULL,
    status       TEXT NOT NULL,
    elapsed_s    REAL NOT NULL DEFAULT 0,
    stages_json  TEXT NOT NULL DEFAULT '{}',
    metrics_json TEXT NOT NULL DEFAULT '{}',
    race_count   INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (run_id, app)
);
CREATE TABLE IF NOT EXISTS races (
    run_id      TEXT NOT NULL REFERENCES runs(run_id),
    app         TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    rank        INTEGER NOT NULL,
    field       TEXT NOT NULL,
    kind        TEXT NOT NULL,
    tier        TEXT NOT NULL,
    priority    INTEGER NOT NULL,
    verdict     TEXT NOT NULL,
    report_json TEXT NOT NULL,
    PRIMARY KEY (run_id, app, fingerprint)
);
CREATE INDEX IF NOT EXISTS races_by_fingerprint ON races(fingerprint);
CREATE TABLE IF NOT EXISTS alerts (
    ts_utc      TEXT NOT NULL,
    objective   TEXT NOT NULL,
    state       TEXT NOT NULL,
    value       REAL,
    threshold   REAL,
    detail_json TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS alerts_by_ts ON alerts(ts_utc);
"""


def race_row(report) -> Dict[str, object]:
    """JSON-ready ledger row for one :class:`~repro.core.report.RaceReport`.

    Computed where the report objects live (a corpus worker ships these
    through its result pipe; the parent never has to re-run the analysis
    to fingerprint a race).
    """
    from repro.core.report import SierraReport

    verdict = (
        report.provenance.verdict() if report.provenance is not None else "unrefuted"
    )
    return {
        "fingerprint": report.fingerprint,
        "rank": report.rank,
        "field": report.field_name,
        "kind": report.kind,
        "tier": report.tier,
        "priority": report.priority,
        "verdict": verdict,
        "report": SierraReport._report_dict(report),
    }


class RunLedger:
    """One open ledger database (also a context manager).

    >>> with RunLedger(path) as ledger:
    ...     run_id = ledger.begin_run("analyze", options_dict)
    ...     ledger.record_app(run_id, app, status="ok", ...)
    """

    def __init__(self, path: str, timeout_s: float = LEDGER_BUSY_TIMEOUT_S) -> None:
        self.path = path
        # one connection, many threads: sqlite connections are not
        # internally thread-safe, so every use goes through this lock
        # (reentrant — record_analysis calls record_app)
        self._lock = threading.RLock()
        self._batch_depth = 0
        try:
            self._db = connect_ledger(path, timeout_s)
            self._db.executescript(_TABLES)
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{path}: not a usable run ledger ({exc})") from exc
        self._db.row_factory = sqlite3.Row

    @contextmanager
    def _write_txn(self):
        """One explicit write transaction: serialized against this
        process's threads by the lock, against other processes by
        ``BEGIN IMMEDIATE`` + the busy timeout. Rows of one append land
        together or not at all — a concurrent reader never sees an app
        row whose race rows are still in flight. Inside a :meth:`batch`
        the enclosing transaction is reused instead of opening a new one."""
        with self._lock:
            if self._batch_depth:
                yield self._db
                return
            self._db.execute("BEGIN IMMEDIATE")
            try:
                yield self._db
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
            else:
                self._db.execute("COMMIT")

    @contextmanager
    def batch(self):
        """Coalesce every append inside the block into ONE transaction.

        The sharded corpus scheduler flushes a burst of completed apps per
        wake-up; one fsync for the burst instead of one per app. Reentrant
        (nested batches join the outermost transaction). The lock is held
        for the duration, so keep blocks short — append calls only.
        """
        with self._lock:
            if self._batch_depth:
                self._batch_depth += 1
                try:
                    yield self
                finally:
                    self._batch_depth -= 1
                return
            self._db.execute("BEGIN IMMEDIATE")
            self._batch_depth = 1
            try:
                yield self
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
            else:
                self._db.execute("COMMIT")
            finally:
                self._batch_depth = 0

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- writing -------------------------------------------------------
    def begin_run(
        self,
        kind: str,
        options: Dict[str, object],
        run_id: Optional[str] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> str:
        """Append a run row; returns the (possibly minted) run id."""
        run_id = run_id or new_run_id()
        try:
            with self._write_txn() as db:
                db.execute(
                    "INSERT INTO runs (run_id, ts_utc, kind, schema, options_digest,"
                    " options_json, meta_json) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_id,
                        datetime.now(timezone.utc).isoformat(timespec="seconds"),
                        kind,
                        LEDGER_SCHEMA,
                        options_digest(options),
                        json.dumps(options, sort_keys=True, default=repr),
                        json.dumps(meta or {}, sort_keys=True),
                    ),
                )
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{self.path}: cannot append run ({exc})") from exc
        return run_id

    def record_app(
        self,
        run_id: str,
        app: str,
        status: str = "ok",
        elapsed_s: float = 0.0,
        stages: Optional[Dict[str, float]] = None,
        metrics: Optional[Dict[str, object]] = None,
        races: Sequence[Dict[str, object]] = (),
    ) -> None:
        """Append one app's outcome (stages, metrics scrape, race rows)."""
        try:
            with self._write_txn() as db:
                db.execute(
                    "INSERT INTO app_runs (run_id, app, status, elapsed_s,"
                    " stages_json, metrics_json, race_count)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        run_id,
                        app,
                        status,
                        float(elapsed_s),
                        json.dumps(stages or {}, sort_keys=True),
                        json.dumps(metrics or {}, sort_keys=True),
                        len(races),
                    ),
                )
                for race in races:
                    db.execute(
                        "INSERT OR REPLACE INTO races (run_id, app, fingerprint,"
                        " rank, field, kind, tier, priority, verdict, report_json)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            run_id,
                            app,
                            str(race["fingerprint"]),
                            int(race["rank"]),
                            str(race["field"]),
                            str(race["kind"]),
                            str(race["tier"]),
                            int(race["priority"]),
                            str(race["verdict"]),
                            json.dumps(race.get("report", {}), sort_keys=True),
                        ),
                    )
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{self.path}: cannot append app row ({exc})") from exc

    def record_analysis(self, run_id: str, app: str, result, elapsed_s: float = 0.0):
        """Record one in-process :class:`~repro.core.SierraResult`.

        Scrapes the live metrics registry — callers record immediately
        after ``analyze()`` returns, while the run's scrape window is
        still the current one.
        """
        from repro.obs import metrics

        report = result.report
        metrics_blob = metrics.registry().collect()
        if getattr(result, "profile", None):
            # reserved key: the attribution summary rides with the scraped
            # metrics so ``repro diff`` can blame units, not just stages
            metrics_blob["profile"] = result.profile
        self.record_app(
            run_id,
            app,
            status="ok",
            elapsed_s=elapsed_s or report.time_total,
            stages=report.stage_timings(),
            metrics=metrics_blob,
            races=[race_row(r) for r in report.reports],
        )

    def record_alert(
        self,
        objective: str,
        state: str,
        value: Optional[float] = None,
        threshold: Optional[float] = None,
        detail: Optional[Dict[str, object]] = None,
        ts_utc: Optional[str] = None,
    ) -> None:
        """Append one SLO alert transition (``firing`` or ``resolved``).

        Written by the serve daemon's watchdog so service-health history
        lives next to analysis history: ``repro diff`` can say "between
        these two runs the daemon fired queue_wait twice" and the
        dashboard can plot outages on the same timeline as race counts.
        """
        if state not in ("firing", "resolved"):
            raise ValueError(f"alert state must be firing|resolved, not {state!r}")
        try:
            with self._write_txn() as db:
                db.execute(
                    "INSERT INTO alerts (ts_utc, objective, state, value,"
                    " threshold, detail_json) VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        ts_utc
                        or datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
                        objective,
                        state,
                        None if value is None else float(value),
                        None if threshold is None else float(threshold),
                        json.dumps(detail or {}, sort_keys=True, default=repr),
                    ),
                )
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{self.path}: cannot append alert ({exc})") from exc

    # -- reading -------------------------------------------------------
    def alerts(
        self,
        since_utc: Optional[str] = None,
        until_utc: Optional[str] = None,
        limit: int = 500,
    ) -> List[Dict[str, object]]:
        """Alert rows oldest-first, optionally clamped to a UTC window
        (ISO-8601 strings compare lexicographically)."""
        sql = "SELECT * FROM alerts"
        clauses, args = [], []  # type: List[str], List[object]
        if since_utc is not None:
            clauses.append("ts_utc >= ?")
            args.append(since_utc)
        if until_utc is not None:
            clauses.append("ts_utc <= ?")
            args.append(until_utc)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY ts_utc, rowid LIMIT ?"
        args.append(int(limit))
        out = []
        for row in self._query(sql, args):
            out.append(
                {
                    "ts_utc": row["ts_utc"],
                    "objective": row["objective"],
                    "state": row["state"],
                    "value": row["value"],
                    "threshold": row["threshold"],
                    "detail": self._load_json(row["detail_json"], "alert detail"),
                }
            )
        return out

    def _query(self, sql: str, args: Sequence[object] = ()) -> List[sqlite3.Row]:
        try:
            with self._lock:
                return self._db.execute(sql, tuple(args)).fetchall()
        except sqlite3.DatabaseError as exc:
            raise LedgerError(f"{self.path}: malformed ledger ({exc})") from exc

    @staticmethod
    def _load_json(blob: str, what: str) -> Dict[str, object]:
        try:
            return json.loads(blob)
        except (TypeError, ValueError) as exc:
            raise LedgerError(f"malformed ledger: bad {what} JSON ({exc})") from exc

    def runs(self, kind: Optional[str] = None) -> List[Dict[str, object]]:
        """All run rows, oldest first (insertion order breaks ts ties)."""
        sql = "SELECT * FROM runs"
        args: List[object] = []
        if kind is not None:
            sql += " WHERE kind = ?"
            args.append(kind)
        sql += " ORDER BY ts_utc, rowid"
        out = []
        for row in self._query(sql, args):
            out.append(
                {
                    "run_id": row["run_id"],
                    "ts_utc": row["ts_utc"],
                    "kind": row["kind"],
                    "schema": row["schema"],
                    "options_digest": row["options_digest"],
                    "options": self._load_json(row["options_json"], "options"),
                    "meta": self._load_json(row["meta_json"], "meta"),
                }
            )
        return out

    def resolve(self, ref: str, kind: Optional[str] = None) -> Dict[str, object]:
        """Resolve a run reference to its run row.

        Accepts a full run id, a unique id prefix, ``latest``, or
        ``latest~N`` (N runs before the latest). Unknown or ambiguous
        references raise :class:`LedgerError`.
        """
        runs = self.runs(kind=kind)
        if not runs:
            raise LedgerError(f"{self.path}: ledger records no runs")
        if ref == "latest" or ref.startswith("latest~"):
            back = 0
            if ref.startswith("latest~"):
                try:
                    back = int(ref[len("latest~"):])
                except ValueError:
                    raise LedgerError(f"bad run reference {ref!r}") from None
            if back >= len(runs):
                raise LedgerError(
                    f"run reference {ref!r} reaches past the ledger "
                    f"({len(runs)} runs recorded)"
                )
            return runs[-1 - back]
        matches = [r for r in runs if str(r["run_id"]).startswith(ref)]
        if not matches:
            raise LedgerError(f"unknown run {ref!r} ({len(runs)} runs recorded)")
        exact = [r for r in matches if r["run_id"] == ref]
        if exact:
            return exact[0]
        if len(matches) > 1:
            raise LedgerError(
                f"ambiguous run reference {ref!r}: matches "
                + ", ".join(str(r["run_id"]) for r in matches)
            )
        return matches[0]

    def app_runs(self, run_id: str) -> Dict[str, Dict[str, object]]:
        """Per-app rows of one run: ``{app: {status, stages, metrics, ...}}``."""
        out: Dict[str, Dict[str, object]] = {}
        for row in self._query(
            "SELECT * FROM app_runs WHERE run_id = ? ORDER BY app", [run_id]
        ):
            out[row["app"]] = {
                "status": row["status"],
                "elapsed_s": row["elapsed_s"],
                "stages": self._load_json(row["stages_json"], "stages"),
                "metrics": self._load_json(row["metrics_json"], "metrics"),
                "race_count": row["race_count"],
            }
        return out

    def recent_app_costs(self, limit_rows: int = 2000) -> Dict[str, float]:
        """Most recent observed wall seconds per app name, newest first.

        Feeds :class:`repro.corpus.specs.CalibratedCostModel`: the
        scheduler's binpacking consults these observations for app names
        the ledger has seen before. Failed/timed-out rows are excluded
        (their elapsed measures the failure budget, not the app), as is
        the per-run aggregate row.
        """
        out: Dict[str, float] = {}
        for row in self._query(
            "SELECT ar.app AS app, ar.elapsed_s AS elapsed_s, ar.status AS status "
            "FROM app_runs ar JOIN runs r ON r.run_id = ar.run_id "
            "ORDER BY r.ts_utc DESC, r.rowid DESC, ar.rowid DESC LIMIT ?",
            [limit_rows],
        ):
            app = str(row["app"])
            if app == AGGREGATE_APP or app in out:
                continue
            if row["status"] not in ("ok", "degraded"):
                continue
            elapsed = row["elapsed_s"]
            if isinstance(elapsed, (int, float)) and elapsed > 0:
                out[app] = float(elapsed)
        return out

    def races(self, run_id: str, with_reports: bool = False) -> List[Dict[str, object]]:
        """Race rows of one run, ranked order within each app."""
        out = []
        for row in self._query(
            "SELECT * FROM races WHERE run_id = ? ORDER BY app, rank", [run_id]
        ):
            race = {
                "app": row["app"],
                "fingerprint": row["fingerprint"],
                "rank": row["rank"],
                "field": row["field"],
                "kind": row["kind"],
                "tier": row["tier"],
                "priority": row["priority"],
                "verdict": row["verdict"],
            }
            if with_reports:
                race["report"] = self._load_json(row["report_json"], "report")
            out.append(race)
        return out
