"""Delivery-mode benchmark: one app analyzed, checked and recorded, three ways.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``workloads.py`` and ``README.md``): ``oneshot-paper``,
``batch-family``, ``serve-resubmit``; ``all`` runs each in turn. Run from
the root of a checkout; the program under test is imported from ``src/``.

``--trace 0`` sets up the workload several times (the median is
``setup_s``), then measures whole passes over the seeded inputs (at least
the workload's ``min_passes``) until ``--seconds`` of timed wall have
passed, and reports the end-to-end metrics. Set-ups, and the passes of
``oneshot-paper``, are scaled to a reference host speed by probes taken
between them (``hostspeed.py``); the unscaled times are printed too.
``--trace 1``
runs one untraced pass and then the same pass with the layer wrappers
installed, prints the layer table, and reports the per-layer metrics;
the difference of the two walls is the tracing overhead.

Every app's report is scored against the generator's ground truth. Human
lines go to stdout first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 1
when any check failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Tuple

import hostspeed
import procs
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
END_TO_END_UNITS = {
    "setup_s": "s",
    "apps_per_s": "1/s",
    "app_latency_p50_s": "s",
    "app_latency_p90_s": "s",
    "cpu_s_per_app": "s",
    "peak_rss_mb": "MB",
    "recall": "ratio",
    "precision": "ratio",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    position = (q / 100.0) * (len(ordered) - 1)
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def _repeat_problems(outcomes) -> list:
    """Effort counters of the same app must repeat exactly."""
    seen, problems = {}, []
    for o in outcomes:
        if o.problem or not o.counters:
            continue
        first = seen.setdefault(o.app, o.counters)
        if first != o.counters:
            problems.append(f"{o.app}: effort counters changed {first} -> {o.counters}")
    return problems


def _timed_pass(wl, index):
    wl.prepare_pass(index)
    cpu0 = wl.cpu_s()
    t0 = time.perf_counter()
    outcomes = wl.run_pass(index)
    return outcomes, time.perf_counter() - t0, wl.cpu_s() - cpu0


def _timed_setup(wl) -> Tuple[float, float]:
    """(seconds, factor) of one set-up; the factor scales it to the
    reference host speed, from the probes just before and after it."""
    wl.probe()
    start = time.time()
    t0 = time.perf_counter()
    wl.setup()
    seconds = time.perf_counter() - t0
    end = time.time()
    wl.probe()
    return seconds, wl.speed.factor(start, end)


def run_end_to_end(wl, seconds: float):
    wl.prepare()
    setups = []
    for i in range(wl.setups):
        if i:
            wl.teardown()
        setups.append(_timed_setup(wl))
    wl.checker.reset()  # recall/precision of the timed phase only
    outcomes, walls, apps_s, scales, latencies, rates, cpus = [], [], [], [], [], [], []
    while sum(walls) < seconds or len(walls) < wl.min_passes:
        got, dt, dcpu = _timed_pass(wl, len(walls))
        wl.probe()  # the last oneshot app's probes after it
        busy, scale = wl.pass_time(got, dt)
        outcomes += got
        walls.append(dt)
        apps_s.append(busy)
        scales.append(scale)
        latencies += [o.latency_s * scale for o in got]
        rates.append(sum(1 for o in got if not o.problem) / (busy * scale))
        cpus.append(dcpu / len(got) * scale)
    wl.teardown()
    wl.problems += _repeat_problems(outcomes)

    totals = wl.checker.totals()
    # rates are medians over passes: a pass hit by a burst of machine
    # noise moves them less than a pooled ratio
    metrics = {
        "setup_s": statistics.median(s * f for s, f in setups),
        "apps_per_s": statistics.median(rates),
        "app_latency_p50_s": percentile(latencies, 50),
        "app_latency_p90_s": percentile(latencies, 90),
        "cpu_s_per_app": statistics.median(cpus),
        "peak_rss_mb": procs.peak_rss_mb(),
        "recall": totals["recall"],
        "precision": totals["precision"],
    }
    print(
        f"{wl.name}: seed {wl.seed}, {len(walls)} pass(es) of "
        f"{', '.join(f'{w:.3f}' for w in walls)} s, {len(outcomes)} apps; "
        f"{len(latencies)} latency samples "
        f"({len(latencies) - int(0.9 * len(latencies))} above p90); "
        f"unscaled set-ups {', '.join(f'{s:.3f}' for s, _ in setups)} s; "
        f"{wl.checker.budget_kept} eliminated field(s) kept at the path budget"
    )
    print(
        f"{wl.name}: host-speed factors (probe {hostspeed.REFERENCE_S * 1e3:g} ms "
        f"at the reference speed, median here {wl.speed.median_s() * 1e3:.2f} ms): "
        f"set-ups {', '.join(f'{f:.3f}' for _, f in setups)}; "
        f"passes {', '.join(f'{f:.3f}' for f in scales)}. Unscaled: apps' time per "
        f"pass {', '.join(f'{s:.3f}' for s in apps_s)} s, app latency p50 "
        f"{percentile([o.latency_s for o in outcomes], 50):.3f} s, "
        f"p90 {percentile([o.latency_s for o in outcomes], 90):.3f} s"
    )
    return outcomes, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(wl):
    wl.prepare()
    wl.setup()
    plain, plain_wall, _ = _timed_pass(wl, 0)
    wl.teardown()

    wl.span_dir = wl.ctx.fresh_dir("spans")
    bench = spans.Tracer(wl.span_dir, "bench")
    if wl.name != "oneshot-paper":  # its layers all live in the CLI process
        spans.install(bench)
        bench.enable_exit_dump()
    wl.setup()
    since = time.time()
    traced, traced_wall, _ = _timed_pass(wl, 0)
    wl.teardown()
    bench.dump()
    wl.problems += _repeat_problems(plain + traced)

    table, per_layer = wl.layer_report(traced, traced_wall, since)
    per_layer.update(
        {
            "trace.apps": len(traced),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - plain_wall,
        }
    )
    print(table)
    print(
        f"tracing overhead: {traced_wall - plain_wall:+.3f} s "
        f"({traced_wall:.3f} s traced vs {plain_wall:.3f} s untraced, "
        f"{len(traced)} apps)"
    )
    return plain + traced, {k: (v, _unit(k)) for k, v in per_layer.items()}


def _unit(name: str) -> str:
    if name.endswith(("_s", "_s_per_app")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # interrupted or terminated, still stop what the workload started and
    # remove its scratch files (the finally below); a background shell
    # job starts with SIGINT ignored
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminate)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program at {src}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    if args.workload == "all":
        # one child per workload, so rusage and CPU totals stay per workload
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
            ).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be all or one of {', '.join(workloads.WORKLOADS)}")
    ctx = workloads.Context(
        root=ROOT,
        work=os.path.join(ROOT, ".perfbench", str(os.getpid())),
        nproc=len(os.sched_getaffinity(0)),
    )
    os.makedirs(ctx.work, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ctx, args.seed)
    try:
        if args.trace:
            outcomes, metrics = run_traced(wl)
        else:
            outcomes, metrics = run_end_to_end(wl, args.seconds)
    finally:
        wl.teardown()
        leaked = procs.live_descendants(os.getpid())
        if leaked:
            wl.problems.append(f"{len(leaked)} process(es) outlived the workload: {leaked}")
            procs.kill_all(leaked)
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:  # and .perfbench itself, unless another run still uses it
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass

    failed = [o for o in outcomes if o.problem]
    for o in failed[:20]:
        print(f"FAILED {o.app}: {o.problem}")
    for problem in wl.problems:
        print(f"FAILED {wl.name}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    correct = not failed and not wl.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes) + len(wl.problems),
                "failed": len(failed) + len(wl.problems),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
