"""Performance harness: the bench suites behind ``BENCH_pipeline.json``.

See :mod:`repro.perf.bench` and ``docs/performance.md``.
"""

from repro.perf.bench import (
    compare_to_baseline,
    run_corpus_bench,
    run_profile_bench,
    run_serve_bench,
    run_warm_bench,
)

__all__ = [
    "compare_to_baseline",
    "run_corpus_bench",
    "run_profile_bench",
    "run_serve_bench",
    "run_warm_bench",
]
