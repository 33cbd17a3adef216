"""The benchmark driver behind ``python -m repro bench`` and
``benchmarks/run_bench.py``.

``BENCH_pipeline.json`` holds one block per bench suite. :data:`SUITES`
has one entry per block, each a :class:`Suite` with two steps:

* ``run(recorded, args) -> block`` re-runs the suite with the parameters
  its recorded block names (app list, corpus seed, profile app; the
  module constants below when no block is recorded);
* ``check(current, recorded, args) -> (exit_code, lines)`` gates the
  fresh block against the recording: 0 ok, 1 regression, 2 broken
  (malformed recording, divergent results, lost recall).

:func:`run` is the one driver: it loads the baseline once, runs and gates
each selected suite, and under ``--update`` replaces only the selected
suites' blocks, keeping every other block of the file exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import Sierra, SierraOptions
from repro.core.report import COUNTER_METRICS, collect_counters

#: JSON layout version of BENCH_pipeline.json
SCHEMA = 1

#: the committed baseline at the root of the source tree
BASELINE = Path(__file__).resolve().parents[3] / "BENCH_pipeline.json"

#: apps of the ``apps``, ``warm`` and ``serve`` suites when no block is
#: recorded: the four figure apps plus three Table 2 stand-ins of
#: increasing size; "paper:K-9 Mail" is the largest synthetic-corpus app
DEFAULT_APPS: List[str] = [
    "quickstart",
    "newsreader",
    "dbapp",
    "opensudoku",
    "paper:APV",
    "paper:OpenSudoku",
    "paper:K-9 Mail",
]

#: the ``profile`` suite's app when no block is recorded
PROFILE_APP = "paper:K-9 Mail"

#: app the trace-schema gate runs on: small enough to stay under a second
TRACE_APP = "opensudoku"

#: the ``serve`` suite's daemon worker threads and load-generator clients
SERVE_WORKERS = 2
SERVE_CONCURRENCY = 4

#: stages below this baseline duration are noise, not signal
_REGRESSION_FLOOR_S = 0.05


class GateError(Exception):
    """A suite cannot produce a block worth gating (exit ``code``)."""

    def __init__(self, code: int, lines: List[str]):
        super().__init__("\n".join(lines))
        self.code = code
        self.lines = lines


def _load_app(name: str):
    # lazy import: repro.cli imports this module for the bench subcommand
    from repro.cli import load_app

    return load_app(name)


def _bench_app_result(name: str, options: Optional[SierraOptions] = None):
    """One pipeline run: (BENCH record, full SierraResult)."""
    result = Sierra(options or SierraOptions()).analyze(_load_app(name))
    report = result.report
    record = {
        "stages": report.stage_timings(),
        "counters": collect_counters(),
        "report": {
            "racy_pairs": report.racy_pairs,
            "races_after_refutation": report.races_after_refutation,
            "edges_by_rule": dict(report.edges_by_rule),
        },
    }
    return record, result


def bench_apps(apps: Sequence[str]) -> Dict[str, object]:
    """The ``apps`` block: stage timings, effort counters and report
    figures of one uncached, serial pipeline run per app."""
    return {name: _bench_app_result(name)[0] for name in apps}


def validate_trace_gate(app: str = TRACE_APP) -> list:
    """Run one traced pipeline and validate the emitted Chrome trace.

    Returns the violation list from
    :func:`repro.obs.validate_trace_file` — empty means the trace loads
    cleanly in chrome://tracing / Perfetto.
    """
    import tempfile

    from repro import obs

    collector = obs.TraceCollector(process_name=f"sierra:{app}")
    obs.add_hook(collector)
    try:
        Sierra(SierraOptions()).analyze(_load_app(app))
    finally:
        obs.remove_hook(collector)
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        trace_path = fh.name
    try:
        collector.write(trace_path)
        return obs.validate_trace_file(trace_path)
    finally:
        Path(trace_path).unlink(missing_ok=True)


# ----------------------------------------------------------------------
# warm re-analysis bench (persistent substrate cache)
# ----------------------------------------------------------------------
#: cache effort counters added to the warm pass records (the cold/base
#: vocabulary in :data:`COUNTER_METRICS` stays unchanged — BENCH baselines
#: and corpus reports keep their schema)
_WARM_COUNTER_METRICS: Dict[str, str] = {
    "cache_substrate_hits": "cache.substrate_hits",
    "cache_substrate_misses": "cache.substrate_misses",
    "cache_refutation_memo_hits": "cache.refutation_memo_hits",
    "cache_refutation_memo_stored": "cache.refutation_memo_stored",
    "refutation_cache_hits": "refutation.cache_hits",
}


def _warm_counters() -> Dict[str, int]:
    from repro.obs import metrics

    registry = metrics.registry()
    return {
        key: int(registry.value(name))
        for key, name in _WARM_COUNTER_METRICS.items()
    }


def run_warm_bench(
    apps: Sequence[str],
    cache_dir: str,
    history: Optional[str] = None,
) -> Dict[str, object]:
    """Cold-then-warm per app against the persistent substrate cache.

    Both passes run with the cache enabled: the first populates it (cold —
    assuming a fresh cache directory), the second replays it (warm). Every
    per-app result of both passes is recorded as an ``analyze`` ledger run
    — race fingerprints and refutation verdicts included — and the two
    runs are then machine-diffed (:func:`repro.obs.diffing.diff_runs`):
    the cache is only a speedup if the warm results are *identical*, so
    any new/fixed race or verdict flip marks the warm suite as divergent
    (``repro bench --warm`` exits 2 on that).

    The equivalence ledger defaults to ``warm_equivalence.sqlite`` inside
    the cache directory when no ``history`` ledger is given.
    """
    import dataclasses
    import os

    from repro.obs.diffing import diff_runs
    from repro.obs.history import KIND_ANALYZE, RunLedger

    options = SierraOptions(cache_dir=cache_dir)
    os.makedirs(cache_dir, exist_ok=True)
    ledger_path = history or os.path.join(cache_dir, "warm_equivalence.sqlite")
    passes: Dict[str, Dict[str, object]] = {}
    run_ids: Dict[str, str] = {}
    with RunLedger(ledger_path) as ledger:
        for mode in ("cold", "warm"):
            run_id = ledger.begin_run(
                KIND_ANALYZE,
                dataclasses.asdict(options),
                meta={"bench_warm_pass": mode},
            )
            run_ids[mode] = run_id
            records: Dict[str, Dict[str, object]] = {}
            for name in apps:
                record, result = _bench_app_result(name, options)
                record["counters"].update(_warm_counters())
                ledger.record_analysis(
                    run_id, name, result, elapsed_s=record["stages"]["total"]
                )
                records[name] = record
            passes[mode] = records
        diff = diff_runs(ledger, run_ids["cold"], run_ids["warm"])

    divergences = []
    if diff.new_races:
        divergences.append(f"{len(diff.new_races)} new races")
    if diff.fixed_races:
        divergences.append(f"{len(diff.fixed_races)} fixed races")
    if diff.verdict_flips:
        divergences.append(f"{len(diff.verdict_flips)} verdict flips")

    warm_apps: Dict[str, Dict[str, object]] = {}
    for name in apps:
        cold_s = passes["cold"][name]["stages"]["total"]
        warm_s = passes["warm"][name]["stages"]["total"]
        warm_apps[name] = {
            "cold_total_s": cold_s,
            "warm_total_s": warm_s,
            "warm_speedup": round(cold_s / warm_s, 2) if warm_s else float("inf"),
            "stages": passes["warm"][name]["stages"],
            "counters": passes["warm"][name]["counters"],
        }
    return {
        "cache_dir": cache_dir,
        "ledger": ledger_path,
        "cold_run": run_ids["cold"],
        "warm_run": run_ids["warm"],
        "cold_apps": passes["cold"],
        "apps": warm_apps,
        "equivalence": {
            "identical": not divergences,
            "divergences": "; ".join(divergences),
            "new_races": len(diff.new_races),
            "fixed_races": len(diff.fixed_races),
            "verdict_flips": len(diff.verdict_flips),
        },
    }


# ----------------------------------------------------------------------
# serve bench (daemon throughput + serve/CLI equivalence)
# ----------------------------------------------------------------------
def run_serve_bench(
    apps: Sequence[str],
    workers: int = SERVE_WORKERS,
    concurrency: int = SERVE_CONCURRENCY,
    history: Optional[str] = None,
    cache_dir: Optional[str] = None,
    job_timeout_s: float = 120.0,
) -> Dict[str, object]:
    """Bench the ``repro serve`` daemon and prove it result-equivalent.

    Two phases over one ledger file:

    1. **one-shot baseline** — every app runs through the pipeline the way
       ``repro analyze --history`` does, recorded as one ``analyze`` run
       per app;
    2. **serve load run** — an in-process :class:`ServeDaemon` (ephemeral
       port, ``workers`` forked workers) takes the same apps from
       ``concurrency`` client threads via the corpus driver's
       ``--target-url`` load generator, which yields the throughput
       (apps/sec) and client-observed latency percentiles (p50/p99).

    Each app's serve run is then machine-diffed against its one-shot run
    (:func:`repro.obs.diffing.diff_runs`): the daemon is only a faster
    front end if race fingerprints and refutation verdicts are
    *identical*, so any divergence marks the block non-equivalent
    (``repro bench --serve`` exits 2 on that).
    """
    import dataclasses
    import os
    import tempfile

    from repro.corpus.driver import run_corpus_remote
    from repro.obs.diffing import diff_runs
    from repro.obs.history import KIND_ANALYZE, RunLedger
    from repro.serve import ServeDaemon

    ledger_path = history or os.path.join(
        tempfile.mkdtemp(prefix="repro-serve-bench-"), "serve_bench.sqlite"
    )
    options = SierraOptions(cache_dir=cache_dir)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)

    # phase 1: the CLI one-shot baseline, one analyze run per app (the
    # same granularity serve jobs record at, so diff_runs compares 1:1)
    oneshot_runs: Dict[str, str] = {}
    with RunLedger(ledger_path) as ledger:
        for name in apps:
            record, result = _bench_app_result(name, options)
            run_id = ledger.begin_run(
                KIND_ANALYZE,
                dataclasses.asdict(options),
                meta={"app": name, "bench_serve_pass": "oneshot"},
            )
            ledger.record_analysis(
                run_id, name, result, elapsed_s=record["stages"]["total"]
            )
            oneshot_runs[name] = run_id

    # phase 2: the daemon under load (sampling fast: a bench run is
    # seconds long, and the telemetry block below should see it happen)
    with ServeDaemon(
        ledger_path,
        options=options,
        workers=workers,
        port=0,
        job_timeout_s=job_timeout_s,
        sample_interval_s=0.25,
    ) as daemon:
        load = run_corpus_remote(
            apps=apps,
            target_url=daemon.url,
            concurrency=concurrency,
            timeout_s=job_timeout_s,
        )
        isolated = daemon.pool.isolated
        # read the ring buffer while the daemon is still alive: how much
        # of the load the sampler witnessed, and whether any SLO fired
        daemon.sampler.sample_once()
        samples = daemon.sampler.snapshot()
        depths = [
            s["queue_depth"]
            for s in samples
            if isinstance(s.get("queue_depth"), (int, float))
        ]
        slo = daemon.watchdog.status()
        telemetry_block = {
            "samples": len(samples),
            "peak_queue_depth": max(depths) if depths else 0,
            "slo_status": slo["status"],
            "slo_violations": [v["objective"] for v in slo["violations"]],
        }

    summary = load.summary()
    app_records: Dict[str, Dict[str, object]] = {}
    divergent: List[str] = []
    with RunLedger(ledger_path) as ledger:
        for record in load.records:
            entry: Dict[str, object] = {
                "job_status": record.status,
                "latency_s": round(record.latency_s, 4),
                "oneshot_run": oneshot_runs.get(record.app),
                "serve_run": record.run_id,
            }
            if record.status != "done" or not record.run_id:
                divergent.append(f"{record.app}: job {record.status}")
            else:
                diff = diff_runs(
                    ledger, oneshot_runs[record.app], record.run_id
                )
                entry["equivalent"] = not (
                    diff.new_races or diff.fixed_races or diff.verdict_flips
                )
                if not entry["equivalent"]:
                    divergent.append(
                        f"{record.app}: {len(diff.new_races)} new, "
                        f"{len(diff.fixed_races)} fixed, "
                        f"{len(diff.verdict_flips)} flips"
                    )
            app_records[record.app] = entry

    return {
        "ledger": ledger_path,
        "workers": workers,
        "concurrency": load.concurrency,
        "isolated": isolated,
        "elapsed_s": summary["elapsed_s"],
        "apps_per_s": summary["apps_per_s"],
        "latency_p50_s": summary["latency_p50_s"],
        "latency_p99_s": summary["latency_p99_s"],
        "telemetry": telemetry_block,
        "apps": app_records,
        "equivalence": {
            "identical": not divergent,
            "divergences": "; ".join(divergent),
        },
    }


# ----------------------------------------------------------------------
# corpus throughput + recall bench
# ----------------------------------------------------------------------
def run_corpus_bench(
    count: int = 100,
    seed: int = 0,
    shard_counts: Optional[Sequence[int]] = None,
    families: Optional[Sequence[str]] = None,
    max_size: int = 2,
    timeout_s: float = 120.0,
) -> Dict[str, object]:
    """Bench the sharded corpus scheduler on a seeded family corpus.

    One seeded corpus (:func:`repro.corpus.families.seeded_corpus`), run
    once per shard count. Three verdicts come out:

    * **throughput** — apps/sec, p50/p99 per-app latency, and scaling
      efficiency (speedup over 1 shard divided by shard count) per width;
    * **equivalence** — every sharded run's per-app (fingerprint, verdict)
      sets must be identical to the 1-shard run's: the scheduler may only
      reorder work, never change results;
    * **ground truth** — the 1-shard run's detected race fields scored
      against each app's injected :class:`GroundTruth` manifest
      (micro-averaged recall/precision), which the ``corpus`` suite's
      check tracks across commits.
    """
    from repro.corpus.driver import run_corpus
    from repro.corpus.families import (
        FAMILY_NAMES,
        aggregate_scores,
        family_ground_truth,
        score_detection,
        seeded_corpus,
    )
    from repro.corpus.scheduler import available_cores
    from repro.obs import metrics
    from repro.serve import percentile

    names = seeded_corpus(
        families=families, count=count, seed=seed, max_size=max_size
    )
    cores = available_cores()
    if shard_counts is None:
        shard_counts = sorted({1, 2, 4, cores})
    if 1 not in shard_counts:
        shard_counts = [1] + sorted(shard_counts)
    truths = {name: family_ground_truth(name) for name in names}

    def run_once(shards: int):
        steals_before = metrics.registry().value("corpus.steals")
        report = run_corpus(
            names,
            options=SierraOptions(),
            timeout_s=timeout_s,
            out_path=None,
            shards=shards,
        )
        latencies = [r.elapsed_s for r in report.records]
        summary = report.summary()
        block = {
            "elapsed_s": round(report.elapsed_s, 4),
            "apps_per_s": (
                round(len(names) / report.elapsed_s, 3) if report.elapsed_s else 0.0
            ),
            "latency_p50_s": round(percentile(latencies, 50), 4),
            "latency_p99_s": round(percentile(latencies, 99), 4),
            "ok": summary["ok"],
            "degraded": summary["degraded"],
            "error": summary["error"],
            "timeout": summary["timeout"],
            "steals": int(
                metrics.registry().value("corpus.steals") - steals_before
            ),
            "effective_parallelism": report.effective_parallelism,
        }
        outcomes = {
            r.app: (
                r.status,
                frozenset(
                    (row["fingerprint"], row["verdict"]) for row in r.races
                ),
            )
            for r in report.records
        }
        return report, block, outcomes

    shard_blocks: Dict[str, Dict[str, object]] = {}
    divergences: List[str] = []
    baseline_report = baseline_outcomes = None
    baseline_rate = 0.0
    for shards in shard_counts:
        report, block, outcomes = run_once(shards)
        if shards == 1:
            baseline_report, baseline_outcomes = report, outcomes
            baseline_rate = block["apps_per_s"]
        else:
            block["speedup"] = (
                round(block["apps_per_s"] / baseline_rate, 3)
                if baseline_rate
                else 0.0
            )
            block["scaling_efficiency"] = round(block["speedup"] / shards, 3)
            for app in names:
                if outcomes[app] != baseline_outcomes[app]:
                    divergences.append(f"{app} @ {shards} shards")
        shard_blocks[str(shards)] = block

    scores = []
    for record in baseline_report.records:
        detected = [row["field"] for row in record.races]
        scores.append(score_detection(truths[record.app], detected))
    truth_block = aggregate_scores(scores)
    truth_block["apps_with_misses"] = sum(1 for s in scores if s["missed"])

    return {
        "count": len(names),
        "seed": seed,
        "families": list(families) if families else list(FAMILY_NAMES),
        "max_size": max_size,
        "cores": cores,
        "timeout_s": timeout_s,
        "shards": shard_blocks,
        "equivalence": {
            "identical": not divergences,
            "divergences": "; ".join(divergences),
        },
        "ground_truth": truth_block,
    }


def run_profile_bench(app: str = PROFILE_APP) -> Dict[str, object]:
    """One profiled pipeline run — the BENCH record's ``profile`` block.

    Runs ``app`` with cost attribution enabled
    (:mod:`repro.obs.profile`), verifies the collapsed-stack export
    parses back (a broken flamegraph must fail the bench, not the
    operator's flamegraph.pl invocation later), and distills the
    summary: per-stage coverage, measured self-overhead, and the top
    attributed units per kind.
    """
    from repro.obs import profile as profile_mod

    record, result = _bench_app_result(app, SierraOptions(profile=True))
    summary = result.profile or {}
    flame_text = profile_mod.collapsed_stacks(summary)
    flame_rows = profile_mod.parse_collapsed(flame_text)  # must round-trip
    top_units = {
        kind: [
            {"name": row["name"], "seconds": row["seconds"]} for row in rows[:5]
        ]
        for kind, rows in summary.get("units", {}).items()
    }
    return {
        "app": app,
        "stages": summary.get("stages", {}),
        "coverage": summary.get("coverage", 0.0),
        "self_overhead_s": summary.get("self_overhead_s", 0.0),
        "elapsed_s": round(record["stages"].get("total", 0.0), 4),
        "flamegraph_stacks": len(flame_rows),
        "top_units": top_units,
        "cache": summary.get("cache", {}),
    }


# ----------------------------------------------------------------------
# the suites: run with the recorded parameters, gate against the record
# ----------------------------------------------------------------------
def compare_to_baseline(
    current: Dict[str, object],
    recorded: Dict[str, object],
    threshold: float = 2.0,
) -> List[str]:
    """Stage-level regressions of an ``apps`` block against its recording.

    Returns human-readable violation strings; empty means no stage of any
    app shared by both blocks slowed down more than ``threshold``x.
    """
    violations: List[str] = []
    for app, record in current.items():
        base_record = recorded.get(app)
        if base_record is None:
            continue
        for stage, seconds in record["stages"].items():
            base_seconds = base_record["stages"].get(stage)
            if base_seconds is None:
                continue
            allowed = max(base_seconds, _REGRESSION_FLOOR_S) * threshold
            if seconds > allowed:
                violations.append(
                    f"{app}/{stage}: {seconds:.3f}s > {threshold}x baseline "
                    f"({base_seconds:.3f}s)"
                )
    return violations


def counter_mismatches(
    current: Dict[str, object], recorded: Dict[str, object]
) -> List[str]:
    """Effort counters of an ``apps`` block that differ from the recording.

    The counters are deterministic, so every one of
    :data:`COUNTER_METRICS` must equal its recorded value exactly; a
    recorded app without a ``counters`` entry gates timings only.
    """
    mismatches: List[str] = []
    for app, record in current.items():
        base_counters = recorded.get(app, {}).get("counters")
        if base_counters is None:
            continue
        for key in COUNTER_METRICS:
            measured = record["counters"][key]
            if base_counters.get(key) != measured:
                mismatches.append(
                    f"{app}/{key} {base_counters.get(key)}->{measured}"
                )
    return mismatches


def _run_apps(recorded, args) -> Dict[str, object]:
    from repro.cli import is_known_app

    # gate exactly the apps the baseline recorded; a baseline naming an
    # app the corpus no longer has must fail loudly, not silently skip it
    apps = sorted(recorded or DEFAULT_APPS)
    unknown = [app for app in apps if not is_known_app(app)]
    if unknown and not args.update:
        raise GateError(2, [
            "error: baseline app(s) no longer in the corpus: "
            f"{', '.join(unknown)}; run with --update to re-record"])
    apps = [app for app in apps if app not in unknown] or DEFAULT_APPS
    violations = validate_trace_gate()
    if violations:
        raise GateError(2, ["MALFORMED TRACE (Chrome trace-event schema):"]
                        + [f"  {v}" for v in violations])
    return bench_apps(apps)


def _check_apps(current, recorded, args) -> Tuple[int, List[str]]:
    lines = [
        f"{app:18s} cg_pa={r['stages']['cg_pa']:.3f}s "
        f"hbg={r['stages']['hbg']:.3f}s "
        f"refutation={r['stages']['refutation']:.3f}s"
        for app, r in current.items()
    ]
    if recorded is None:
        return 0, lines
    code = 0
    regressions = compare_to_baseline(current, recorded, args.threshold)
    if regressions:
        code = 1
        lines += ["", "PERF REGRESSION:"] + [f"  {v}" for v in regressions]
    mismatches = counter_mismatches(current, recorded)
    if mismatches:
        code = 1
        lines += ["", "EFFORT COUNTER MISMATCH (recorded->measured; "
                  "re-record with --update if the change is intended):"]
        lines += [f"  {m}" for m in mismatches]
    if not code:
        lines += ["", f"ok: no stage regressed more than {args.threshold}x, "
                  "effort counters equal the recording"]
    return code, lines


def _recorded_apps(recorded) -> List[str]:
    return list((recorded or {}).get("apps") or DEFAULT_APPS)


def _temp_cache(args) -> str:
    import tempfile

    return args.cache or tempfile.mkdtemp(prefix="repro-cache-")


def _run_warm(recorded, args) -> Dict[str, object]:
    return run_warm_bench(
        _recorded_apps(recorded), _temp_cache(args), history=args.history
    )


def _check_warm(current, recorded, args) -> Tuple[int, List[str]]:
    lines = [
        f"{app:18s} cold={r['cold_total_s']:.3f}s "
        f"warm={r['warm_total_s']:.3f}s ({r['warm_speedup']:.1f}x, "
        f"memo_hits={r['counters']['refutation_cache_hits']})"
        for app, r in current["apps"].items()
    ]
    equivalence = current["equivalence"]
    if not equivalence["identical"]:
        return 2, lines + [
            "", f"WARM/COLD DIVERGENCE: {equivalence['divergences']} "
            f"(diff runs {current['cold_run']} vs {current['warm_run']} in "
            f"{current['ledger']})"]
    return 0, lines + ["", "ok: warm results identical to cold "
                       "(fingerprints and refutation verdicts)"]


def _run_serve(recorded, args) -> Dict[str, object]:
    recorded = recorded or {}
    return run_serve_bench(
        _recorded_apps(recorded),
        workers=recorded.get("workers", SERVE_WORKERS),
        concurrency=recorded.get("concurrency", SERVE_CONCURRENCY),
        cache_dir=_temp_cache(args),
    )


def _check_serve(current, recorded, args) -> Tuple[int, List[str]]:
    lines = [
        f"{app:18s} job={r['job_status']:8s} latency={r['latency_s']:.3f}s "
        f"equivalent={r.get('equivalent')}"
        for app, r in current["apps"].items()
    ]
    lines += ["", f"{current['workers']} workers / concurrency "
              f"{current['concurrency']}: {current['apps_per_s']:.2f} apps/s, "
              f"p50={current['latency_p50_s']:.3f}s "
              f"p99={current['latency_p99_s']:.3f}s"]
    equivalence = current["equivalence"]
    if not equivalence["identical"]:
        return 2, lines + [
            "", f"SERVE/CLI DIVERGENCE: {equivalence['divergences']} "
            f"(ledger {current['ledger']})"]
    return 0, lines + ["ok: serve results identical to CLI one-shots "
                       "(fingerprints and refutation verdicts)"]


def _run_corpus(recorded, args) -> Dict[str, object]:
    if not recorded:
        return run_corpus_bench()
    return run_corpus_bench(
        count=recorded["count"],
        seed=recorded["seed"],
        shard_counts=sorted(int(s) for s in recorded["shards"]),
        families=recorded.get("families"),
        max_size=recorded.get("max_size", 2),
        timeout_s=recorded.get("timeout_s", 120.0),
    )


def _check_corpus(current, recorded, args) -> Tuple[int, List[str]]:
    recorded_shards = (recorded or {}).get("shards", {})
    lines = []
    for shards, block in sorted(current["shards"].items(), key=lambda kv: int(kv[0])):
        was = recorded_shards.get(shards, {}).get("apps_per_s")
        lines.append(
            f"shards={shards}: {block['apps_per_s']:.2f} apps/s"
            + (f" (recorded {was:.2f})" if was is not None else "")
            + f", p50={block['latency_p50_s']:.3f}s "
            f"p99={block['latency_p99_s']:.3f}s, steals={block['steals']}")
    truth = current["ground_truth"]
    base_truth = (recorded or {}).get("ground_truth")
    lines.append(
        f"recall={truth['recall']:.3f}"
        + (f" (recorded {base_truth['recall']:.3f})" if base_truth else "")
        + f", precision={truth['precision']:.3f}, "
        f"{truth['found']}/{truth['expected']} injected races found")

    equivalence = current["equivalence"]
    if not equivalence["identical"]:
        return 2, lines + [
            "", f"SHARDED/SERIAL DIVERGENCE: {equivalence['divergences']}"]
    if recorded is None:
        return 0, lines
    if truth["recall"] < base_truth["recall"] - 1e-9:
        return 2, lines + [
            "", f"RECALL REGRESSION: {truth['recall']:.3f} < recorded "
            f"{base_truth['recall']:.3f} "
            f"({truth['found']}/{truth['expected']} found, "
            f"{truth['apps_with_misses']} apps with misses)"]

    violations = []
    for shards, block in recorded_shards.items():
        cur = current["shards"][shards]["apps_per_s"]
        rec = block["apps_per_s"]
        if cur * args.threshold < rec:
            violations.append(
                f"  shards={shards}: {cur:.2f} apps/s is more than "
                f"{args.threshold:g}x below the recorded {rec:.2f}")
    if violations:
        return 1, lines + ["", "CORPUS THROUGHPUT REGRESSION:"] + violations
    return 0, lines + [
        "", f"ok: recall held at {truth['recall']:.3f}, sharded results "
        "identical to serial, throughput within "
        f"{args.threshold:g}x of the recording"]


#: keys every profile block must carry — a baseline or re-run missing one
#: is malformed, not merely slow
_PROFILE_KEYS = ("app", "stages", "coverage", "self_overhead_s",
                 "flamegraph_stacks")


def _validate_profile_block(block, label: str) -> List[str]:
    """Structural checks on a ``profile`` block; returns violation strings."""
    from repro.obs.profile import STAGE_NAMES

    violations = []
    if not isinstance(block, dict):
        return [f"{label}: profile block is not an object"]
    for key in _PROFILE_KEYS:
        if key not in block:
            violations.append(f"{label}: profile block missing key {key!r}")
    stages = block.get("stages")
    if isinstance(stages, dict):
        for stage in STAGE_NAMES:
            record = stages.get(stage)
            if not isinstance(record, dict):
                violations.append(
                    f"{label}: profile block missing stage {stage!r}")
            elif not isinstance(record.get("seconds"), (int, float)):
                violations.append(
                    f"{label}: stage {stage!r} has no seconds measurement")
    else:
        violations.append(f"{label}: profile stages is not an object")
    coverage = block.get("coverage")
    if not isinstance(coverage, (int, float)) or not 0.0 <= coverage <= 1.0:
        violations.append(
            f"{label}: coverage {coverage!r} is not in [0, 1]")
    stacks = block.get("flamegraph_stacks")
    if not isinstance(stacks, int) or stacks <= 0:
        violations.append(
            f"{label}: flamegraph_stacks {stacks!r} is not a positive count")
    return violations


def _run_profile(recorded, args) -> Dict[str, object]:
    if not args.update:
        violations = _validate_profile_block(recorded, "baseline")
        if violations:
            raise GateError(2, ["MALFORMED PROFILE BASELINE:"]
                            + [f"  {v}" for v in violations]
                            + ["run with --profile --update to regenerate it"])
    app = (recorded or {}).get("app")
    try:
        # run_profile_bench round-trips the collapsed-stack export through
        # parse_collapsed; a broken flamegraph surfaces here
        return run_profile_bench(app if isinstance(app, str) else PROFILE_APP)
    except ValueError as exc:
        raise GateError(2, [f"MALFORMED FLAMEGRAPH EXPORT: {exc}"]) from exc


def _check_profile(current, recorded, args) -> Tuple[int, List[str]]:
    violations = _validate_profile_block(current, "current")
    if violations:
        return 2, ["MALFORMED PROFILE BLOCK:"] + [f"  {v}" for v in violations]
    cur_cov = float(current["coverage"])
    lines = [f"{current['app']:18s} coverage={cur_cov:.3f}, "
             f"self_overhead={current['self_overhead_s']:.4f}s, "
             f"{current['flamegraph_stacks']} flamegraph stacks"]
    for stage, record in current["stages"].items():
        lines.append(f"  {stage:12s} {record['seconds']:.3f}s "
                     f"coverage={record.get('coverage', 0.0):.3f}")
    if recorded is None:
        return 0, lines
    base_cov = float(recorded["coverage"])
    if cur_cov < base_cov - args.coverage_slack:
        return 1, lines + [
            "", f"ATTRIBUTION COVERAGE COLLAPSE: {cur_cov:.3f} is more than "
            f"{args.coverage_slack:g} below the recorded {base_cov:.3f}"]
    return 0, lines + [
        "", f"ok: attribution coverage held at {cur_cov:.3f} "
        f"(recorded {base_cov:.3f}), flamegraph export round-trips"]


@dataclass(frozen=True)
class Suite:
    """One ``BENCH_pipeline.json`` block: how to re-run it and gate it.

    ``run(recorded, args)`` may raise :class:`GateError`; ``check`` gets
    ``recorded=None`` under ``--update`` and then applies only the checks
    that need no recording (result equivalence, block structure).
    ``needs_block`` suites cannot gate without a recorded block.
    """

    run: Callable[..., Dict[str, object]]
    check: Callable[..., Tuple[int, List[str]]]
    needs_block: bool


#: every bench suite, keyed by its block name (= its selecting flag,
#: except ``apps``, which runs when no suite flag is given)
SUITES: Dict[str, Suite] = {
    "apps": Suite(_run_apps, _check_apps, needs_block=True),
    "warm": Suite(_run_warm, _check_warm, needs_block=False),
    "serve": Suite(_run_serve, _check_serve, needs_block=False),
    "corpus": Suite(_run_corpus, _check_corpus, needs_block=True),
    "profile": Suite(_run_profile, _check_profile, needs_block=True),
}


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def _record_bench_run(ledger, block: Dict[str, object]) -> str:
    """Append an ``apps`` block to the ledger as one ``bench`` run."""
    from repro.obs.history import KIND_BENCH

    run_id = ledger.begin_run(KIND_BENCH, {"apps": list(block)})
    for name, record in block.items():
        ledger.record_app(
            run_id,
            name,
            status="ok",
            elapsed_s=record["stages"].get("total", 0.0),
            stages=record["stages"],
            metrics={k: {"type": "counter", "value": v}
                     for k, v in record["counters"].items()},
            races=(),
        )
    return run_id


def gate_against_history(db_path: str, threshold: float) -> int:
    """Record an ``apps`` bench into the ledger and gate against the
    previous bench run there (the baseline rolls forward with every
    green run). The first run against an empty ledger records and
    passes; a malformed ledger is exit 2."""
    from repro.obs.diffing import diff_runs, render_diff
    from repro.obs.history import KIND_BENCH, LedgerError, RunLedger

    try:
        with RunLedger(db_path) as ledger:
            had_baseline = bool(ledger.runs(kind=KIND_BENCH))
            run_id = _record_bench_run(ledger, bench_apps(DEFAULT_APPS))
            if not had_baseline:
                print(f"recorded first bench run {run_id} in {db_path}; "
                      "nothing to gate against yet")
                return 0
            # resolve by kind so interleaved analyze runs in a shared ledger
            # never become the bench baseline; threshold here is a slowdown
            # factor (2.0x) while diffing wants the relative increase
            base = ledger.resolve("latest~1", kind=KIND_BENCH)
            diff = diff_runs(
                ledger, str(base["run_id"]), run_id,
                time_threshold=threshold - 1.0,
            )
        print(render_diff(diff))
        return diff.gate_exit_code()
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    """Run and gate the suites ``args`` selects; exit 0/1/2.

    ``args`` is the parsed ``repro bench`` namespace (flags ``warm``,
    ``serve``, ``corpus``, ``profile``, ``update``, ``baseline``,
    ``threshold``, ``coverage_slack``, ``history``, ``cache``).
    """
    names = [name for name in SUITES if name != "apps" and getattr(args, name)]
    names = names or ["apps"]
    hint = " ".join([f"--{name}" for name in names if name != "apps"] + ["--update"])
    if args.history and names == ["apps"]:
        if args.update:
            print("error: --history gates the apps suite against the ledger; "
                  "it does not combine with --update", file=sys.stderr)
            return 2
        return gate_against_history(args.history, args.threshold)

    path = Path(args.baseline) if args.baseline else BASELINE
    baseline: Dict[str, object] = {}
    if path.exists():
        try:
            baseline = json.loads(path.read_text())
            if not isinstance(baseline, dict):
                raise ValueError("top level is not an object")
        except ValueError as exc:  # json.JSONDecodeError included
            if not args.update:
                print(f"error: baseline {path} is not valid JSON ({exc}); "
                      f"run with {hint} to regenerate it", file=sys.stderr)
                return 2
            baseline = {}
    elif not args.update and any(SUITES[n].needs_block for n in names):
        print(f"error: no baseline at {path}; run with {hint} first",
              file=sys.stderr)
        return 2
    if not args.update:
        for name in names:
            if SUITES[name].needs_block and not baseline.get(name):
                print(f"error: baseline {path} records no {name} block; "
                      f"run with {hint} to record one", file=sys.stderr)
                return 2

    code = 0
    blocks: Dict[str, object] = {}
    for name in names:
        suite = SUITES[name]
        recorded = baseline.get(name)
        try:
            block = suite.run(recorded, args)
            suite_code, lines = suite.check(
                block, None if args.update else recorded, args)
        except GateError as exc:
            suite_code, lines = exc.code, exc.lines
        else:
            blocks[name] = block
        print("\n".join(lines), file=sys.stderr if suite_code else sys.stdout)
        code = max(code, suite_code)

    if args.update:
        if code:
            print(f"baseline not updated: {path}", file=sys.stderr)
            return code
        baseline.setdefault("schema", SCHEMA)
        baseline.update(blocks)
        with open(path, "w") as fh:
            json.dump(baseline, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"baseline updated: {path} ({', '.join(names)})")
    return code
