"""CLI + driver surfaces of the cache: subcommands, targeted queries,
corruption injection, the warm bench record."""

import json

from repro.cli import main
from repro.corpus.driver import run_corpus
from repro.core import SierraOptions


class TestCacheSubcommands:
    def test_stats_and_gc_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["analyze", "quickstart", "--cache", cache]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache", cache]) == 0
        out = capsys.readouterr().out
        assert "substrate" in out and "verdict" in out

        assert main(["cache", "stats", "--cache", cache, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] >= 3  # substrate + app index + verdict(s)

        assert main(["cache", "gc", "--cache", cache, "--max-age-days", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted" in out

    def test_missing_cache_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert main(["cache", "stats"]) == 2
        assert main(["cache", "stats", "--cache", str(tmp_path / "nope")]) == 2
        assert main(["cache", "gc"]) == 2

    def test_cache_env_var_enables_caching(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "envcache"
        cache.mkdir()
        monkeypatch.setenv("REPRO_CACHE", str(cache))
        assert main(["analyze", "quickstart"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "substrate" in capsys.readouterr().out


class TestOnlyFieldCli:
    def test_match_prints_selected(self, capsys):
        assert main(["analyze", "quickstart", "--only-field", "counter"]) == 0
        out = capsys.readouterr().out
        assert "selected for 'counter'=1" in out

    def test_no_match_exits_2_listing_candidates(self, capsys):
        assert main(["analyze", "quickstart", "--only-field", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "matches none" in err
        assert "counter" in err  # the candidate list

    def test_json_carries_query(self, capsys):
        assert main(
            ["analyze", "quickstart", "--only-field", "counter", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["only_field"] == "counter"
        assert data["racy_pairs_selected"] == 1


class TestInjectCacheCorrupt:
    def test_corrupted_cache_analyzes_cold_with_warning(self, tmp_path):
        cache = str(tmp_path / "cache")
        options = SierraOptions(cache_dir=cache)
        # populate, then re-run with every entry truncated
        run_corpus(apps=["quickstart"], options=options, isolate=False)
        run = run_corpus(
            apps=["quickstart"],
            options=options,
            isolate=False,
            inject_cache_corrupt={"quickstart"},
        )
        (record,) = run.records
        assert record.status in ("ok", "degraded")
        assert record.report["races_after_refutation"] == 1
        warnings = " ".join(record.warnings)
        assert "injected cache corruption" in warnings
        assert "corrupt" in warnings  # the store's own loud fallback

    def test_injection_is_noop_without_cache(self):
        run = run_corpus(
            apps=["quickstart"],
            options=SierraOptions(),
            isolate=False,
            inject_cache_corrupt={"quickstart"},
        )
        (record,) = run.records
        assert record.status == "ok"
        assert not any("cache" in w for w in record.warnings)


class TestWarmBench:
    def test_warm_record_and_equivalence(self, tmp_path):
        from repro.perf import run_warm_bench

        cache = str(tmp_path / "cache")
        data = run_warm_bench(["quickstart"], cache)
        rec = data["apps"]["quickstart"]
        assert rec["warm_speedup"] > 0
        assert rec["counters"]["cache_substrate_hits"] == 1
        assert rec["counters"]["refutation_cache_hits"] > 0
        assert data["equivalence"]["identical"]
        assert data["cold_apps"]["quickstart"]["stages"]["total"] > 0
