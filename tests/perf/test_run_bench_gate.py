"""The bench gate's failure modes must be one clear line, not a traceback."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_GATE_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "run_bench.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("run_bench_gate", _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGateFailureMessages:
    def test_missing_baseline(self, gate, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert gate.main(["--baseline", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "no baseline" in err and "--update" in err

    def test_corrupt_baseline(self, gate, tmp_path, capsys):
        bad = tmp_path / "corrupt.json"
        bad.write_text("not json {")
        assert gate.main(["--baseline", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_baseline_with_vanished_app(self, gate, tmp_path, capsys):
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(
            {"apps": {"paper:Gone App": {"stages": {"cg_pa": 1.0}}}}
        ))
        assert gate.main(["--baseline", str(stale)]) == 2
        err = capsys.readouterr().err
        assert "no longer in the corpus" in err
        assert "paper:Gone App" in err
        assert "Traceback" not in err

    def test_baseline_without_apps(self, gate, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"apps": {}}))
        assert gate.main(["--baseline", str(empty)]) == 2
        assert "records no apps" in capsys.readouterr().err


class TestGateRuns:
    def test_gate_benches_the_baseline_apps(self, gate, tmp_path, capsys):
        # a tiny baseline: the gate must bench exactly this app and pass
        # (generous numbers: nothing can regress 2x above them)
        baseline = tmp_path / "tiny.json"
        baseline.write_text(json.dumps(
            {"apps": {"quickstart": {"stages": {"cg_pa": 60.0, "hbg": 60.0,
                                                "refutation": 60.0,
                                                "total": 180.0}}}}
        ))
        assert gate.main(["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out
        assert "paper:APV" not in out  # not the default suite: baseline-driven

    def test_effort_counter_mismatch_names_app_and_counter(
        self, gate, tmp_path, capsys
    ):
        baseline = tmp_path / "recorded.json"
        baseline.write_text(json.dumps({"apps": {"quickstart": {}}}))
        assert gate.main(["--update", "--baseline", str(baseline)]) == 0
        data = json.loads(baseline.read_text())
        # generous stages: only the counters can fail this gate
        stages = data["apps"]["quickstart"]["stages"]
        for stage in stages:
            stages[stage] = 60.0
        baseline.write_text(json.dumps(data))
        assert gate.main(["--baseline", str(baseline)]) == 0
        assert "effort counters equal the recording" in capsys.readouterr().out

        counters = data["apps"]["quickstart"]["counters"]
        counters["closure_ops"] += 1
        baseline.write_text(json.dumps(data))
        assert gate.main(["--baseline", str(baseline)]) == 1
        err = capsys.readouterr().err
        assert "EFFORT COUNTER MISMATCH" in err
        assert (f"quickstart/closure_ops {counters['closure_ops']}->"
                f"{counters['closure_ops'] - 1}") in err


#: canned blocks of the suites an update must leave alone
_CORPUS_BLOCK = {
    "count": 3, "seed": 3, "families": ["storm"], "max_size": 0,
    "timeout_s": 60.0, "shards": {"1": {"apps_per_s": 1.0}},
    "ground_truth": {"recall": 1.0},
}
_PROFILE_BLOCK = {"app": "quickstart", "coverage": 0.5, "stages": {}}


class TestPerSuiteUpdate:
    """``--update`` replaces only the selected suites' blocks; every other
    block of the baseline stays equal as a JSON value."""

    def test_update_keeps_every_other_block(self, gate, tmp_path):
        baseline = tmp_path / "BENCH.json"
        original = {
            "schema": 1,
            "python": "3.0.0",
            "apps": {"quickstart": {"stages": {"total": 1.0}}},
            "warm": {"apps": {"quickstart": {}}},
            "corpus": _CORPUS_BLOCK,
            "profile": _PROFILE_BLOCK,
        }
        baseline.write_text(json.dumps(original))

        assert gate.main(["--warm", "--update", "--baseline", str(baseline),
                          "--cache", str(tmp_path / "cache")]) == 0
        after_warm = json.loads(baseline.read_text())
        assert set(after_warm) == set(original)
        for key in original:
            if key != "warm":
                assert after_warm[key] == original[key], key
        assert set(after_warm["warm"]["apps"]) == {"quickstart"}
        assert after_warm["warm"]["equivalence"]["identical"]

        assert gate.main(["--corpus", "--update", "--baseline", str(baseline)]) == 0
        after_corpus = json.loads(baseline.read_text())
        for key in after_warm:
            if key != "corpus":
                assert after_corpus[key] == after_warm[key], key
        corpus = after_corpus["corpus"]
        assert (corpus["count"], corpus["seed"], corpus["families"]) == (
            3, 3, ["storm"])
        assert set(corpus["shards"]) == {"1"}
        assert corpus["ground_truth"]["recall"] == 1.0
