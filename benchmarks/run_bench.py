#!/usr/bin/env python
"""Perf regression gate: re-run the bench suites and gate them against
the committed ``BENCH_pipeline.json``.

Usage (from anywhere; the default baseline is the repo's):

    python benchmarks/run_bench.py                    # apps gate (CI)
    python benchmarks/run_bench.py --corpus --profile # those suites' gates
    python benchmarks/run_bench.py --warm --update    # re-record one block
    python benchmarks/run_bench.py --history perf.db  # gate vs the ledger

This is ``python -m repro bench``: the same driver
(:func:`repro.perf.bench.run`) and the same flags. Each suite —
``apps`` (the default), ``--warm``, ``--serve``, ``--corpus``,
``--profile`` — re-runs with the parameters its recorded block names and
exits 0 (ok), 1 (stage slowdown beyond ``--threshold``x, an effort
counter that differs from the recording, throughput or coverage loss) or
2 (missing/corrupt baseline or block, vanished app, malformed trace or
profile, lost recall, sharded/serial, warm/cold or serve/CLI
divergence). ``--update`` rewrites only the selected suites' blocks and
keeps every other block of the baseline exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as repro_main  # noqa: E402


def main(argv=None) -> int:
    return repro_main(["bench", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
