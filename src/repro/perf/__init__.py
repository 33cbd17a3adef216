"""Performance harness: pipeline benching and substrate speedup measurement.

See :mod:`repro.perf.bench` and ``docs/performance.md``.
"""

from repro.perf.bench import (
    DEFAULT_APPS,
    SPEEDUP_APP,
    bench_app,
    bench_hbg,
    collect_counters,
    collect_stage_timings,
    compare_to_baseline,
    run_bench,
    run_corpus_bench,
    run_serve_bench,
    run_warm_bench,
)

__all__ = [
    "DEFAULT_APPS",
    "SPEEDUP_APP",
    "bench_app",
    "bench_hbg",
    "collect_counters",
    "collect_stage_timings",
    "compare_to_baseline",
    "run_bench",
    "run_corpus_bench",
    "run_serve_bench",
    "run_warm_bench",
]
