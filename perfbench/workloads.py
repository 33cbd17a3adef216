"""The three delivery-mode workloads.

Each workload drives one public entry point from outside and checks every
app's report against the generator's ground truth:

* ``oneshot-paper``: ``python -m repro analyze <app> --json`` in a fresh
  interpreter per app, the 20 Table-2 stand-ins in a seeded order, one at
  a time, with no cache and no ledger. Its timings are scaled to a
  reference host speed by probes taken between the apps (``hostspeed``).
* ``batch-family``: a seeded family corpus through ``run_corpus`` with one
  shard per core and a fresh ledger and cache directory per batch.
* ``serve-resubmit``: a ``repro serve`` daemon (own process, one in-process
  worker, shared cache and ledger) warmed in set-up by one pass over a
  seeded mix of the paper apps and family apps; then one closed-loop
  client thread per core resubmits the mix and waits for every job.

A workload runs in *passes*: one pass is one full sweep over its inputs,
so every run measures whole passes and the same seed measures the same
inputs. ``prepare_pass`` does the untimed bookkeeping of a pass (ground
truth); ``run_pass`` is the timed part and returns one :class:`Outcome`
per app.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Optional, Tuple

import layers
import procs
from hostspeed import HostSpeed

#: apps per batch-family batch: one size-3 app of each family per 80
BATCH_APPS = 80
#: family apps in the serve-resubmit mix (beside the 20 paper apps)
SERVE_FAMILY_APPS = 40
#: batch-family's set-up batch draws its apps from this seed upwards,
#: apart from every timed batch
WARM_SEED_BASE = 1_000_000
#: apps in that set-up batch: the first 15 of a corpus are 8 of size 0,
#: 5 of size 1 and 2 of size 2
WARM_APPS = 15
#: per-job / per-app wall budget; an app past it counts as failed
APP_TIMEOUT_S = 120.0
#: host-speed probes around each set-up and before each oneshot app
PROBE_REPS = 3


@dataclass
class Context:
    """Where a run lives: the checkout's ``src`` and a private work dir."""

    root: str
    work: str
    nproc: int

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    def env(self) -> Dict[str, str]:
        """Child environment: the checkout's sources, unbuffered output,
        and no inherited cache or ledger settings."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = self.src
        env["PYTHONUNBUFFERED"] = "1"
        return env

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


@dataclass
class Outcome:
    """One app, invoked and checked."""

    app: str
    start: float  # time.time() at invocation / submission
    end: float  # time.time() once the report was checked
    problem: Optional[str] = None  # why it counts as failed, if it does
    counters: Dict[str, int] = field(default_factory=dict)
    job: Optional[Dict[str, object]] = None  # serve: the finished job row
    #: when the CLI process ended / the client saw the serve job finish
    observed: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.end - self.start


class Checker:
    """Scores reports against ground truth; micro-averages recall and
    precision. Any scoring error is a failure, never a pass.

    A report of a field the generator made refutable or ordered fails the
    app, with one exception the program states itself: a field whose
    every report carries the ``survived-budget-exceeded`` verdict was
    kept because the refuter hit its path budget (the paper's §5 cap),
    a weaker claim the report says it is making. Such fields are counted
    in ``budget_kept`` and still count against precision."""

    def __init__(self) -> None:
        self.truths: Dict[str, object] = {}
        self.scores: List[Dict[str, object]] = []
        self.budget_kept = 0
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Forget the scores so far (set-up passes are not measured)."""
        self.scores.clear()
        self.budget_kept = 0

    def add_truth(self, app: str, truth) -> None:
        self.truths[app] = truth

    def check(self, app: str, races: List[Tuple[str, bool]]) -> Optional[str]:
        """``races``: (field, kept only because the path budget ran out)
        for every reported race of ``app``."""
        from repro.corpus.families import score_detection

        try:
            score = score_detection(self.truths[app], [f for f, _ in races])
            capped = {f for f, budget in races if budget}
            capped -= {f for f, budget in races if not budget}
            leaked = sorted(set(score["leaked_eliminated"]) - capped)
        except Exception as exc:  # noqa: BLE001 — a scorer crash is a failed check
            return f"scoring failed: {type(exc).__name__}: {exc}"
        with self._lock:
            self.scores.append(score)
            self.budget_kept += len(score["leaked_eliminated"]) - len(leaked)
        if score["missed"]:
            return f"missed injected races on {score['missed'][:3]}"
        if leaked:
            return f"reported eliminated fields {leaked[:3]}"
        return None

    def totals(self) -> Dict[str, float]:
        from repro.corpus.families import aggregate_scores

        return aggregate_scores(self.scores)


def _paper_apps(checker: Checker) -> List[str]:
    from repro.corpus import synthesize_app, twenty_app_specs

    names = []
    for spec in twenty_app_specs():
        name = f"paper:{spec.name}"
        checker.add_truth(name, synthesize_app(spec)[1])
        names.append(name)
    return names


def _family_truths(checker: Checker, names: List[str]) -> None:
    # the generator itself, not the wrapped public name: ground truth is
    # benchmark work and must not show up in the corpus.synth layer
    from repro.corpus.families import family_spec, parse_family_name
    from repro.corpus.synth import synthesize_app

    for name in names:
        if name not in checker.truths:
            spec = family_spec(*parse_family_name(name))
            checker.add_truth(name, synthesize_app(spec)[1])


class Workload:
    name = ""
    #: set-ups per end-to-end run; setup_s is their median
    setups = 5
    #: timed passes per end-to-end run, at least: the counter-repeat check
    #: always has a repeat, and a pass count never flips between runs
    #: because one pass took about ``--seconds``
    min_passes = 2

    def __init__(self, ctx: Context, seed: int) -> None:
        self.ctx = ctx
        self.seed = seed
        self.checker = Checker()
        #: problems that are not one app's: leaked processes, set-up errors
        self.problems: List[str] = []
        self.span_dir: Optional[str] = None  # set for a traced pass
        #: host-speed probes: every set-up is scaled, and a serial
        #: workload's passes too (``hostspeed``)
        self.speed = HostSpeed()

    def prepare(self) -> None:
        """Untimed: inputs and their ground truth."""

    def prepare_pass(self, index: int) -> None:
        """Untimed bookkeeping before pass ``index``."""

    def setup(self) -> None:
        """Make the program ready for its first timed input."""

    def teardown(self) -> None:
        """Stop whatever ``setup`` started; leaks go to ``problems``."""

    def run_pass(self, index: int) -> List[Outcome]:
        raise NotImplementedError

    def probe(self) -> None:
        """Untimed: sample the host's speed."""
        self.speed.probe(PROBE_REPS)

    def pass_time(self, outcomes: List[Outcome], wall_s: float) -> Tuple[float, float]:
        """(seconds the pass's apps took, the pass's host-speed factor) for
        a pass whose wall was ``wall_s``. Not scaled here: the program keeps
        the cores busy through the pass, so probes could only run seconds
        away from the work they should describe."""
        return wall_s, 1.0

    def cpu_s(self) -> float:
        return procs.own_cpu_s()

    def layer_report(self, outcomes, wall_s, since) -> Tuple[str, Dict[str, float]]:
        """(printed table, per-layer metrics) of the traced pass, from the
        spans that started at or after ``since``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# oneshot-paper
# ----------------------------------------------------------------------
class OneshotPaper(Workload):
    name = "oneshot-paper"
    #: 2 x 20 apps, so four latency samples above the p90. Five passes
    #: would give ten, but a run would then take about 80 s on a 2-vCPU
    #: host, and 22 runs per workload of that do not fit a one-hour
    #: benchmark budget beside serve-resubmit, whose p90 needs the passes
    #: more. Ten paired runs with three passes were no steadier than with
    #: two
    min_passes = 2

    def prepare(self) -> None:
        self.apps = _paper_apps(self.checker)
        random.Random(self.seed).shuffle(self.apps)

    def pass_time(self, outcomes, wall_s):
        # the pass's wall also holds the probes, so its apps' time is the
        # sum of their latencies. One factor per pass, from its 60-odd
        # probes: a factor from the few probes next to one app is noisier
        # than the drift it removes
        start = min(o.start for o in outcomes)
        end = max(o.end for o in outcomes)
        return sum(o.latency_s for o in outcomes), self.speed.factor(start, end)

    def _command(self, app: str, args: List[str]) -> List[str]:
        if self.span_dir is None:
            return [sys.executable, "-m", "repro", *args]
        entry = os.path.join(self.ctx.root, "perfbench", "entry.py")
        return [sys.executable, entry, self.span_dir, "cli", app, repr(time.time()), *args]

    def _invoke(self, app: str, args: List[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            self._command(app, args),
            cwd=self.ctx.root,
            env=self.ctx.env(),
            capture_output=True,
            timeout=APP_TIMEOUT_S,
        )

    def setup(self) -> None:
        # the untimed warm-up invocation: a tiny app through the same path
        done = self._invoke("quickstart", ["analyze", "quickstart", "--json"])
        if done.returncode != 0:
            self.problems.append(f"warm-up analyze exited {done.returncode}")

    def run_pass(self, index: int) -> List[Outcome]:
        import json

        out = []
        for app in self.apps:
            self.probe()  # one app runs at a time: probes fit between them
            start = time.time()
            outcome = Outcome(app, start, start)
            try:
                done = self._invoke(app, ["analyze", app, "--json"])
                outcome.observed = time.time()
            except subprocess.TimeoutExpired:
                outcome.problem = f"timed out after {APP_TIMEOUT_S:g}s"
            else:
                if done.returncode != 0:
                    outcome.problem = f"exited {done.returncode}"
                else:
                    try:
                        report = json.loads(done.stdout)
                        races = [
                            (r["field"], r["provenance"]["refutation"]["budget_exceeded"])
                            for r in report["reports"]
                        ]
                        refutation = report["refutation"] or {}
                        outcome.counters = {
                            "racy_pairs": report["racy_pairs"],
                            "hb_edges": report["hb_edges"],
                            "nodes_expanded": refutation.get("nodes_expanded", 0),
                            "refutation_cache_hits": refutation.get("cache_hits", 0),
                        }
                    except (ValueError, KeyError, TypeError) as exc:
                        outcome.problem = f"unreadable --json output: {exc!r}"
                    else:
                        outcome.problem = self.checker.check(app, races)
            outcome.end = time.time()
            out.append(outcome)
        return out

    def layer_report(self, outcomes, wall_s, since):
        spans, counts = layers.load(self.span_dir, since)
        main_end = {s.app: s.end for s in spans if s.name == "cli:main"}
        windows = []
        for o in outcomes:
            # the CLI process's exit: from main() returning until the
            # parent saw the process end
            exit_spans = []
            if o.app in main_end and o.observed > main_end[o.app]:
                raw = (0, "cli:exit", main_end[o.app], o.observed, None, 0, o.app, None)
                exit_spans.append(layers.Span(0, "cli", raw))
            windows.append((o.app, o.start, o.end, exit_spans))
        charged, total, residual = layers.charge_windows(spans, windows)
        per_layer = layers.by_layer(charged)
        table = layers.format_table(self.name, per_layer, total, residual)
        k9 = [w for w in windows if w[0] == "paper:K-9 Mail"]
        if k9:
            _, k9_total, k9_res = layers.charge_windows(spans, k9)
            table += (
                f"\n  paper:K-9 Mail: layers cover {k9_total - k9_res:.3f} s "
                f"of {k9_total:.3f} s wall ({(k9_total - k9_res) / k9_total:.1%})"
            )
        extra = {
            "cli.start_s": charged.get("cli:start", 0.0),
            "cli.import_s": charged.get("cli:import", 0.0),
        }
        return table, _layer_metrics(per_layer, charged, counts, residual, extra)


# ----------------------------------------------------------------------
# batch-family
# ----------------------------------------------------------------------
class BatchFamily(Workload):
    name = "batch-family"
    #: a pass's wall swings with the host's neighbours on both cores; the
    #: median of three keeps one slow pass out of the rates
    min_passes = 3

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        self.names: List[str] = []
        # the last pass's run records, work dir and steal count, for the
        # layer table
        self.records = []
        self.work = ""
        self.steals = 0

    def prepare(self) -> None:
        from repro.corpus.families import seeded_corpus

        # every pass runs the same batch; the ledger and cache are fresh
        # per batch, so no pass warms the next
        self.names = seeded_corpus(count=BATCH_APPS, seed=self.seed, max_size=3)
        _family_truths(self.checker, self.names)

    def prepare_pass(self, index: int) -> None:
        # a fresh ledger and cache per batch; the last one is removed here,
        # outside the timed wall
        self.work = self.ctx.fresh_dir("batch")

    def setup(self) -> None:
        from repro.core import SierraOptions
        from repro.corpus.driver import run_corpus
        from repro.corpus.families import seeded_corpus
        from repro.obs.history import RunLedger

        work = self.ctx.fresh_dir("batch-setup")
        ledger = os.path.join(work, "ledger.sqlite")
        RunLedger(ledger).close()
        # apps outside the timed batch, so set-up warms no timed input.
        # Sizes 0-2: the shards' start and stop alone took 0.07 s in some
        # runs and 0.15 s in others, so a two-app warm-up made setup_s
        # swing by a factor of two from run to run
        warm = seeded_corpus(count=WARM_APPS, seed=WARM_SEED_BASE + self.seed, max_size=3)
        report = run_corpus(
            warm,
            options=SierraOptions(cache_dir=os.path.join(work, "cache")),
            history=ledger,
            shards=self.ctx.nproc,
        )
        if report.exit_code != 0:
            self.problems.append(f"warm-up batch exit code {report.exit_code}")

    def run_pass(self, index: int) -> List[Outcome]:
        from repro.core import SierraOptions
        from repro.corpus.driver import run_corpus
        from repro.obs import metrics

        steals = metrics.registry().value("corpus.steals")
        outcomes: Dict[str, Outcome] = {}
        start = time.time()

        def checked(record) -> None:
            outcome = Outcome(record.app, start, start)
            if record.status not in ("ok", "degraded"):
                outcome.problem = f"status {record.status}: {record.error}"
            else:
                outcome.counters = dict(record.counters, **record.report)
                races = [(row["field"], row["verdict"] == _CAPPED) for row in record.races]
                outcome.problem = self.checker.check(record.app, races)
            outcome.end = time.time()
            outcomes[record.app] = outcome

        report = run_corpus(
            self.names,
            options=SierraOptions(cache_dir=os.path.join(self.work, "cache")),
            timeout_s=APP_TIMEOUT_S,
            history=os.path.join(self.work, "ledger.sqlite"),
            shards=self.ctx.nproc,
            progress=checked,
        )
        self.records = report.records
        self.steals = metrics.registry().value("corpus.steals") - steals
        return [
            outcomes.get(n) or Outcome(n, start, time.time(), "no record")
            for n in self.names
        ]

    def layer_report(self, outcomes, wall_s, since):
        spans, counts = layers.load(self.span_dir, since)
        parent = [s for s in spans if s.role == "bench"]
        shard = [s for s in spans if s.role != "bench"]
        per_name = layers.self_seconds(shard)
        per_layer = layers.by_layer(per_name)
        lanes = self.ctx.nproc
        lane_s = wall_s * lanes
        busy = sum(r.elapsed_s for r in self.records)
        per_layer["corpus.scheduler"] = lane_s - busy
        residual = busy - sum(per_name.values())
        outside = layers.by_layer(layers.self_seconds(parent))
        table = layers.format_table(
            f"{self.name}, {lanes} lanes x {wall_s:.3f} s",
            per_layer, lane_s, residual, outside,
        )
        apps = len(self.records) or 1
        extra = {
            "corpus.scheduler.busy_ratio": busy / lane_s if lane_s else 0.0,
            "corpus.scheduler.overhead_s_per_app": (lane_s - busy) / apps,
            "corpus.scheduler.steals": self.steals,
            "cache.bytes_written": _tree_bytes(os.path.join(self.work, "cache")),
        }
        # the metrics count a layer's work on both sides of the pipe
        merged = {
            k: per_layer.get(k, 0.0) + outside.get(k, 0.0) for k in {*per_layer, *outside}
        }
        for name, seconds in layers.self_seconds(parent).items():
            per_name[name] = per_name.get(name, 0.0) + seconds
        return table, _layer_metrics(merged, per_name, counts, residual, extra)


# ----------------------------------------------------------------------
# serve-resubmit
# ----------------------------------------------------------------------
class ServeResubmit(Workload):
    name = "serve-resubmit"
    setups = 2  # each one is a daemon start plus a cold pass (~13-19 s)
    #: 4 x 60 jobs: a job's latency includes its wait behind the other
    #: client's job, which differs by pass, so the p90 needs many passes.
    #: Beyond three, the spread over runs barely moved (it follows the
    #: host's drift), and a fifth pass does not fit the time budget
    min_passes = 4

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        self.daemon: Optional[subprocess.Popen] = None
        self.client = None
        self.warming = False
        self.cache_dir = ""
        self.cache_bytes_before = 0

    def prepare(self) -> None:
        from repro.corpus.families import seeded_corpus

        family = seeded_corpus(count=SERVE_FAMILY_APPS, seed=self.seed, max_size=2)
        _family_truths(self.checker, family)
        self.mix = _paper_apps(self.checker) + family

    def setup(self) -> None:
        from repro.serve import ServeClient

        work = self.ctx.fresh_dir("serve")
        self.cache_dir = os.path.join(work, "cache")
        # --no-isolation: at this commit a job child forked from the
        # threaded daemon can hang in sqlite3.connect on a SQLite mutex
        # another daemon thread held at the fork (see README.md). In-process
        # jobs run one at a time under the pool's lock, so one worker:
        # waiting for a job's turn then shows as queue wait, not run time
        args = [
            "serve", "--port", "0", "--workers", "1", "--no-isolation",
            "--history", os.path.join(work, "ledger.sqlite"),
            "--cache", self.cache_dir,
        ]
        if self.span_dir is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            entry = os.path.join(self.ctx.root, "perfbench", "entry.py")
            command = [sys.executable, entry, self.span_dir, "daemon", "-", "-", *args]
        log_path = os.path.join(work, "daemon.out")
        with open(log_path, "wb") as log:
            self.daemon = subprocess.Popen(
                command,
                cwd=self.ctx.root,
                env=self.ctx.env(),
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                start_new_session=True,
                # a shell's background job ignores SIGINT, and the daemon
                # would inherit that; SIGINT is how teardown stops it
                preexec_fn=_default_sigint,
            )
        url = _await_line(log_path, "serving on ", self.daemon, timeout_s=60.0)
        self.client = ServeClient(url.split()[0], timeout_s=APP_TIMEOUT_S)
        self.warming = True
        try:
            warm = self.run_pass(-1)
        finally:
            self.warming = False
        bad = [o for o in warm if o.problem]
        if bad:
            self.problems.append(
                f"{len(bad)} warm-up job(s) failed, first: {bad[0].app}: {bad[0].problem}"
            )
        if self.span_dir is not None:
            self.cache_bytes_before = _tree_bytes(self.cache_dir)

    def teardown(self) -> None:
        if self.daemon is None:
            return
        leaked = procs.stop_daemon(self.daemon)
        if leaked:
            self.problems.append(f"daemon left {len(leaked)} process(es) running: {leaked}")
        if self.daemon.returncode not in (0, None):
            self.problems.append(f"daemon exited {self.daemon.returncode}")
        self.daemon = None

    def cpu_s(self) -> float:
        return procs.own_cpu_s() + procs.tree_cpu_s(self.daemon.pid)

    def _one(self, app: str) -> Outcome:
        from repro.serve import ServeError

        start = time.time()
        outcome = Outcome(app, start, start)
        try:
            job = self.client.submit(app)
            job = self.client.wait(str(job["job_id"]), timeout_s=APP_TIMEOUT_S)
            outcome.observed = time.time()
            outcome.job = job
            if job.get("status") != "done":
                outcome.problem = f"job {job.get('status')}: {job.get('error')}"
            else:
                report = self.client.report(str(job["run_id"]))
                metrics = report["apps"][app]["metrics"]
                outcome.counters = {
                    key: int(metrics.get(name, {}).get("value", 0))
                    for key, name in _SERVE_COUNTERS.items()
                }
                iterations = outcome.counters["pointsto_iterations"]
                if not self.warming and iterations:
                    outcome.problem = (
                        f"timed job ran points-to ({iterations} iterations): "
                        "the substrate cache was not warm"
                    )
                    print(f"serve-resubmit: {app}: {outcome.problem}", file=sys.stderr)
                else:
                    races = [(r["field"], r["verdict"] == _CAPPED) for r in report["races"]]
                    outcome.problem = self.checker.check(app, races)
        except (ServeError, KeyError, TypeError, ValueError) as exc:
            outcome.problem = f"{type(exc).__name__}: {exc}"
        outcome.end = time.time()
        return outcome

    def run_pass(self, index: int) -> List[Outcome]:
        """One sweep over the mix by ``nproc`` closed-loop client threads,
        in an order seeded per pass (which jobs contend differs by pass)."""
        queue = list(self.mix)
        random.Random(f"{self.seed}/{index}").shuffle(queue)
        lock = threading.Lock()
        out: List[Outcome] = []

        def client() -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    app = queue.pop()
                outcome = self._one(app)
                with lock:
                    out.append(outcome)

        threads = [threading.Thread(target=client) for _ in range(self.ctx.nproc)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out

    def layer_report(self, outcomes, wall_s, since):
        spans, counts = layers.load(self.span_dir, since)
        windows = [(o.app, o.start, o.end, _job_spans(o)) for o in outcomes]
        charged, total, residual = layers.charge_windows(spans, windows)
        per_layer = layers.by_layer(charged)
        table = layers.format_table(
            f"{self.name}, {len(outcomes)} job windows", per_layer, total, residual
        )
        jobs = [o for o in outcomes if o.job and o.job.get("started_utc")]
        n = len(jobs) or 1
        submits = [s.seconds for s in spans if s.name == "serve:submit"]
        extra_metrics = {
            "serve.submit_s": sum(submits) / (len(submits) or 1),
            "serve.queue_wait_s": sum(
                _ts(o.job["started_utc"]) - _ts(o.job["submitted_utc"]) for o in jobs
            ) / n,
            "serve.run_s": sum(float(o.job["elapsed_s"]) for o in jobs) / n,
            "serve.poll_lag_s": sum(
                o.observed - _ts(o.job["finished_utc"]) for o in jobs
            ) / n,
            "serve.polls_per_job": counts.get("serve:poll.calls", 0) / n,
            "cache.bytes_written": _tree_bytes(self.cache_dir) - self.cache_bytes_before,
        }
        return table, _layer_metrics(per_layer, charged, counts, residual, extra_metrics)


#: race verdict of a candidate kept because the refuter ran out of budget
_CAPPED = "survived-budget-exceeded"

_SERVE_COUNTERS = {
    "pointsto_iterations": "pointsto.worklist_iterations",
    "closure_ops": "hb.closure_ops",
    "racy_pairs": "sierra.racy_pairs",
    "nodes_expanded": "refutation.nodes_expanded",
    "refutation_cache_hits": "refutation.cache_hits",
}


def _ts(iso: str) -> float:
    return datetime.fromisoformat(str(iso)).timestamp()


def _job_spans(outcome: Outcome) -> List[layers.Span]:
    """Queue wait and poll lag from the job row, as the lowest-ranked
    spans of the job's window (charged only where nothing else runs)."""
    job = outcome.job
    if not job or not job.get("started_utc") or not job.get("finished_utc"):
        return []
    rows = [
        ("serve:queue", _ts(job["submitted_utc"]), _ts(job["started_utc"])),
        ("serve:poll_lag", _ts(job["finished_utc"]), outcome.observed),
    ]
    return [
        layers.Span(0, "bench", (0, name, lo, hi, None, -1, outcome.app, None))
        for name, lo, hi in rows
        if hi > lo
    ]


def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _await_line(path: str, marker: str, proc: subprocess.Popen, timeout_s: float) -> str:
    """Wait for ``marker`` in a child's output file; return the rest of
    that line. Fails if the child exits or the deadline passes first."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with open(path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if marker in line:
                    return line.split(marker, 1)[1].strip()
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    with open(path, encoding="utf-8", errors="replace") as fh:
        tail = fh.read()[-2000:]
    raise RuntimeError(f"daemon never printed {marker!r}; output:\n{tail}")


def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


def _layer_metrics(per_layer, per_name, counts, residual, extra=None) -> Dict[str, float]:
    """The per-layer metric set every workload reports (0 where a layer
    does no work on this workload)."""
    candidates = counts.get("core.refute.candidates", 0)
    lookups = counts.get("cache.lookups", 0)
    out = {
        "cli.self_s": per_layer.get("cli", 0.0),
        "cli.start_s": 0.0,
        "cli.import_s": 0.0,
        "corpus.synth.self_s": per_layer.get("corpus.synth", 0.0),
        "corpus.synth.calls": counts.get("corpus.synth.calls", 0),
        "core.detector.self_s": per_layer.get("core.detector", 0.0),
        "core.harness.self_s": per_layer.get("core.harness", 0.0),
        "core.harness.rounds": counts.get("core.harness.rounds", 0),
        "core.extract.self_s": per_layer.get("core.extract", 0.0),
        "core.extract.pointsto_iterations": counts.get(
            "core.extract.pointsto_iterations", 0
        ),
        "core.hb.self_s": per_layer.get("core.hb", 0.0),
        "core.hb.closure_ops": counts.get("core.hb.closure_ops", 0),
        "core.hb.edges": counts.get("core.hb.edges", 0),
        "core.races.self_s": per_layer.get("core.races", 0.0),
        "core.races.racy_pairs": counts.get("core.races.racy_pairs", 0),
        "core.refute.self_s": per_layer.get("core.refute", 0.0),
        "core.refute.candidates": candidates,
        "core.refute.nodes_expanded": counts.get("core.refute.nodes_expanded", 0),
        "core.refute.refuted_ratio": (
            counts.get("core.refute.refuted", 0) / candidates if candidates else 0.0
        ),
        "core.refute.memo_hit_ratio": (
            counts.get("core.refute.memo_hits", 0) / candidates if candidates else 0.0
        ),
        "core.provenance.self_s": per_layer.get("core.provenance", 0.0),
        "core.prioritize.self_s": per_layer.get("core.prioritize", 0.0),
        "cache.lookup_s": per_name.get("cache:lookup", 0.0),
        "cache.save_s": per_name.get("cache:save", 0.0),
        "cache.hit_ratio": counts.get("cache.hits", 0) / lookups if lookups else 0.0,
        "cache.bytes_written": 0,
        "obs.history.write_s": per_layer.get("obs.history", 0.0),
        "obs.history.rows": counts.get("obs.history.rows", 0),
        "corpus.scheduler.self_s": per_layer.get("corpus.scheduler", 0.0),
        "corpus.scheduler.busy_ratio": 0.0,
        "corpus.scheduler.overhead_s_per_app": 0.0,
        "corpus.scheduler.steals": 0,
        "serve.self_s": per_layer.get("serve", 0.0),
        "serve.submit_s": 0.0,
        "serve.queue_wait_s": 0.0,
        "serve.run_s": 0.0,
        "serve.poll_lag_s": 0.0,
        "serve.polls_per_job": 0.0,
        "residual_s": residual,
    }
    out.update(extra or {})
    return out


WORKLOADS = {cls.name: cls for cls in (OneshotPaper, BatchFamily, ServeResubmit)}
