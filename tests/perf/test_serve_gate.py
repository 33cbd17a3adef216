"""The serve bench block and its equivalence gate (marked ``serve_smoke``)."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.perf import bench, run_serve_bench

pytestmark = pytest.mark.serve_smoke

_GATE_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "run_bench.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("run_bench_gate", _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_suite(monkeypatch, name, run):
    """Swap one suite's ``run`` step, keeping its real ``check``."""
    monkeypatch.setitem(
        bench.SUITES, name, dataclasses.replace(bench.SUITES[name], run=run)
    )


def _canned_serve_block(identical: bool):
    return {
        "ledger": "/tmp/ledger.sqlite",
        "workers": 2,
        "concurrency": 4,
        "isolated": True,
        "apps_per_s": 3.0,
        "latency_p50_s": 0.2,
        "latency_p99_s": 1.0,
        "apps": {
            "quickstart": {
                "job_status": "done",
                "latency_s": 0.2,
                "equivalent": identical,
            }
        },
        "equivalence": {
            "identical": identical,
            "divergences": "" if identical else "quickstart: 1 new, 0 fixed, 0 flips",
        },
    }


class TestRunServeBench:
    def test_block_schema_and_equivalence(self, tmp_path):
        data = run_serve_bench(
            ["quickstart", "newsreader"],
            workers=2,
            concurrency=2,
            history=str(tmp_path / "ledger.sqlite"),
            cache_dir=str(tmp_path / "cache"),
        )
        assert data["workers"] == 2
        assert data["apps_per_s"] > 0
        assert data["latency_p99_s"] >= data["latency_p50_s"] >= 0
        assert set(data["apps"]) == {"quickstart", "newsreader"}
        for record in data["apps"].values():
            assert record["job_status"] == "done"
            assert record["equivalent"] is True
            assert record["oneshot_run"] != record["serve_run"]
        assert data["equivalence"]["identical"] is True


class TestServeGate:
    def test_divergence_exits_two(self, gate, tmp_path, monkeypatch, capsys):
        _fake_suite(monkeypatch, "serve",
                    lambda recorded, args: _canned_serve_block(False))
        assert gate.main(["--serve", "--baseline", str(tmp_path / "b.json")]) == 2
        assert "SERVE/CLI DIVERGENCE" in capsys.readouterr().err

    def test_identical_exits_zero(self, gate, tmp_path, monkeypatch, capsys):
        _fake_suite(monkeypatch, "serve",
                    lambda recorded, args: _canned_serve_block(True))
        assert gate.main(["--serve", "--baseline", str(tmp_path / "b.json")]) == 0
        out = capsys.readouterr().out
        assert "apps/s" in out and "identical to CLI one-shots" in out

    def test_divergent_update_writes_nothing(
        self, gate, tmp_path, monkeypatch, capsys
    ):
        _fake_suite(monkeypatch, "serve",
                    lambda recorded, args: _canned_serve_block(False))
        path = tmp_path / "b.json"
        path.write_text('{"apps": {}}')
        assert gate.main(["--serve", "--update", "--baseline", str(path)]) == 2
        assert path.read_text() == '{"apps": {}}'
        assert "baseline not updated" in capsys.readouterr().err

    def test_cli_flag_routes_to_serve_gate(self, gate, monkeypatch, tmp_path):
        """``--serve`` runs the serve suite alone, with the recorded
        block's parameters; it no longer benches the apps pass."""
        called = {}

        def fake(recorded, args):
            called["serve"] = recorded
            return _canned_serve_block(True)

        def no_apps(recorded, args):
            raise AssertionError("--serve must not bench the apps suite")

        _fake_suite(monkeypatch, "serve", fake)
        _fake_suite(monkeypatch, "apps", no_apps)
        path = tmp_path / "b.json"
        path.write_text('{"serve": {"apps": {"quickstart": {}}, "workers": 1}}')
        assert gate.main(["--serve", "--baseline", str(path)]) == 0
        assert called == {"serve": {"apps": {"quickstart": {}}, "workers": 1}}
