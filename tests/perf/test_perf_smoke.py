"""Fast checks of the benchmark harness (marked ``perf_smoke``).

These run the real ``apps`` suite on a small app (speed, not the
recorded baseline) and check the regression-gate logic on synthetic
records, so ``pytest -m perf_smoke`` stays well under a minute.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf import compare_to_baseline

pytestmark = pytest.mark.perf_smoke

#: small enough to bench in seconds, big enough to exercise every stage
SMALL_APP = "paper:APV"


@pytest.fixture(scope="module")
def bench_record(tmp_path_factory):
    """A baseline recorded by ``repro bench --update`` from one app."""
    path = tmp_path_factory.mktemp("bench") / "BENCH_pipeline.json"
    path.write_text(json.dumps({"apps": {SMALL_APP: {}}}))
    assert main(["bench", "--update", "--baseline", str(path)]) == 0
    return json.loads(path.read_text())


class TestBenchRecordShape:
    def test_schema_and_keys(self, bench_record):
        assert bench_record["schema"] == 1
        record = bench_record["apps"][SMALL_APP]
        assert set(record) == {"stages", "counters", "report"}
        assert set(record["stages"]) == {"cg_pa", "hbg", "refutation", "total"}
        assert record["stages"]["total"] >= record["stages"]["cg_pa"]

    def test_counters_are_positive(self, bench_record):
        counters = bench_record["apps"][SMALL_APP]["counters"]
        assert counters["actions"] > 0
        assert counters["closure_ops"] > 0
        assert counters["pointsto_worklist_iterations"] > 0

    def test_report_fields_recorded(self, bench_record):
        report = bench_record["apps"][SMALL_APP]["report"]
        assert report["racy_pairs"] >= report["races_after_refutation"] >= 0
        assert report["edges_by_rule"]


class TestCorpusAnalyzeSmoke:
    """Every PR exercises the batch driver + RUN_report schema (satellite of
    the fault-isolation work; see docs/operations.md)."""

    def test_small_subset_batch_run(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "RUN_report.json"
        code = main(
            ["corpus-analyze", "--apps", "quickstart", "dbapp",
             "--out", str(out), "--timeout", "60"]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 2
        assert data["summary"]["ok"] == data["summary"]["total"] == 2
        for record in data["apps"].values():
            assert record["status"] == "ok"
            assert set(record["stages"]) >= {"cg_pa", "hbg", "refutation"}
            assert record["counters"]["actions"] > 0


class TestTraceExport:
    """The --trace workflow end to end, plus the schema gate the bench
    driver (benchmarks/run_bench.py) runs against every emitted trace."""

    def test_analyze_trace_flag_emits_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro import obs
        from repro.cli import main

        out = tmp_path / "trace.json"
        code = main(["analyze", "quickstart", "--trace", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().err
        assert obs.validate_trace_file(str(out)) == []
        data = json.loads(out.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        # sub-stage spans, not just the three coarse stages
        assert {"cg_pa", "hbg", "refutation"} <= names
        assert any(name.startswith("hb.rule.") for name in names)
        assert any(name.startswith("pointsto.") for name in names)
        assert any(name.startswith("refute.") for name in names)

    def test_trace_memory_flag_attaches_rss(self, tmp_path):
        import json

        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(
            ["analyze", "quickstart", "--trace", str(out), "--trace-memory"]
        ) == 0
        data = json.loads(out.read_text())
        ends = [e for e in data["traceEvents"] if e["ph"] == "E"]
        assert any(e["args"].get("rss_peak_kb", 0) > 0 for e in ends)

    def test_bench_driver_trace_gate(self):
        from repro.perf.bench import validate_trace_gate

        assert validate_trace_gate("quickstart") == []


class TestLedgerGate:
    """``repro diff --gate`` exit-code contract over the run-history ledger:
    0 clean, 1 on an injected regression, 2 on a malformed ledger."""

    @staticmethod
    def _record_run(db, stages):
        from repro.obs.history import KIND_BENCH, RunLedger

        with RunLedger(db) as ledger:
            run_id = ledger.begin_run(KIND_BENCH, {"apps": ["app"]})
            ledger.record_app(run_id, "app", stages=stages)
        return run_id

    def test_gate_clean_exits_zero(self, tmp_path):
        from repro.cli import main

        db = str(tmp_path / "h.db")
        self._record_run(db, {"cg_pa": 1.0, "hbg": 0.5})
        self._record_run(db, {"cg_pa": 1.0, "hbg": 0.5})
        assert main(["diff", "latest~1", "latest", "--gate", "--history", db]) == 0

    def test_gate_injected_regression_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "h.db")
        self._record_run(db, {"cg_pa": 1.0, "hbg": 0.5})
        self._record_run(db, {"cg_pa": 3.0, "hbg": 0.5})  # 3x slowdown
        assert main(["diff", "latest~1", "latest", "--gate", "--history", db]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "cg_pa" in out
        # without --gate the same diff reports but does not fail the build
        assert main(["diff", "latest~1", "latest", "--history", db]) == 0

    def test_gate_malformed_ledger_exits_two(self, tmp_path):
        from repro.cli import main

        db = tmp_path / "h.db"
        db.write_bytes(b"this is not a sqlite database, not even close")
        assert main(["diff", "latest~1", "latest", "--gate",
                     "--history", str(db)]) == 2

    def test_gate_bad_run_reference_exits_two(self, tmp_path):
        from repro.cli import main

        db = str(tmp_path / "h.db")
        self._record_run(db, {"cg_pa": 1.0})
        assert main(["diff", "latest~5", "latest", "--gate",
                     "--history", db]) == 2

    def test_bench_history_gate_rolls_forward(self, tmp_path):
        """repro bench --history: first run records and passes, a
        same-speed second run gates clean against it."""
        from repro.obs.history import KIND_BENCH, RunLedger

        db = str(tmp_path / "bench.db")
        # threshold 3.0 + a collect between runs: the first bench's live
        # objects otherwise tax the second's gen-2 sweeps (see the heap
        # note in docs/performance.md), and stages near the 50 ms noise
        # floor then flake right across a 2.0x line depending on how much
        # heap earlier tests left behind
        import gc

        gate = ["bench", "--history", db, "--threshold", "3.0"]
        assert main(gate) == 0  # first run: baseline
        gc.collect()
        assert main(gate) == 0  # second run: gated
        with RunLedger(db) as ledger:
            assert len(ledger.runs(kind=KIND_BENCH)) == 2

    def test_bench_history_gate_malformed_ledger(self, tmp_path):
        db = tmp_path / "bench.db"
        db.write_bytes(b"corrupt")
        assert main(["bench", "--history", str(db)]) == 2


class TestRegressionGate:
    @staticmethod
    def _record(cg_pa, hbg):
        return {"app": {"stages": {"cg_pa": cg_pa, "hbg": hbg}}}

    def test_no_violation_within_threshold(self):
        base = self._record(1.0, 0.5)
        current = self._record(1.9, 0.9)
        assert compare_to_baseline(current, base) == []

    def test_violation_beyond_threshold(self):
        base = self._record(1.0, 0.5)
        current = self._record(2.5, 0.5)
        violations = compare_to_baseline(current, base)
        assert len(violations) == 1
        assert "app/cg_pa" in violations[0]

    def test_noise_floor_suppresses_tiny_stages(self):
        # 1ms -> 4ms is 4x but far below the floor: not a regression
        base = self._record(0.001, 0.5)
        current = self._record(0.004, 0.5)
        assert compare_to_baseline(current, base) == []

    def test_unknown_apps_and_stages_ignored(self):
        base = {"other": {"stages": {"cg_pa": 1.0}}}
        current = self._record(9.0, 9.0)
        assert compare_to_baseline(current, base) == []
