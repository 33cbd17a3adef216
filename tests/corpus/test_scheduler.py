"""Sharded work-stealing scheduler: binpacking, core budget, equivalence."""

from __future__ import annotations

import dataclasses
import io
import multiprocessing

import pytest

from repro import obs
from repro.core import SierraOptions
from repro.corpus import scheduler as sched
from repro.corpus.driver import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    run_corpus,
)
from repro.corpus.families import (
    aggregate_scores,
    family_ground_truth,
    score_detection,
    seeded_corpus,
)


def _item(index: int, cost: float, **kw) -> sched.WorkItem:
    return sched.WorkItem(index=index, name=f"app{index}", cost=cost, **kw)


class TestCoreBudget:
    def test_divides_cores_across_shards(self):
        assert sched.core_budget(4, requested=8, cores=8) == 2
        assert sched.core_budget(2, requested=8, cores=8) == 4

    def test_never_raises_the_request(self):
        assert sched.core_budget(2, requested=1, cores=8) == 1
        assert sched.core_budget(1, requested=3, cores=16) == 3

    def test_more_shards_than_cores_degrades_to_one(self):
        assert sched.core_budget(8, requested=4, cores=4) == 1
        assert sched.core_budget(3, requested=2, cores=2) == 1

    def test_single_shard_keeps_full_budget(self):
        assert sched.core_budget(1, requested=4, cores=4) == 4


class TestWorkPlan:
    def test_lpt_binpacking_largest_first_into_least_loaded(self):
        plan = sched.WorkPlan(
            [_item(0, 10.0), _item(1, 9.0), _item(2, 2.0), _item(3, 1.0)],
            shards=2,
        )
        assert [it.cost for it in plan.bins[0]] == [10.0, 1.0]
        assert [it.cost for it in plan.bins[1]] == [9.0, 2.0]
        assert plan.load_of(0) == 11.0 and plan.load_of(1) == 11.0

    def test_take_serves_own_head_largest_first(self):
        plan = sched.WorkPlan([_item(0, 10.0), _item(1, 4.0)], shards=1)
        item, stolen_from = plan.take(0)
        assert item.cost == 10.0 and stolen_from is None

    def test_idle_shard_steals_victims_cheapest_tail(self):
        plan = sched.WorkPlan(
            [_item(0, 10.0), _item(1, 4.0), _item(2, 3.0)], shards=2
        )
        assert [it.cost for it in plan.bins[1]] == [4.0, 3.0]
        item, _ = plan.take(0)  # drains shard 0's only item
        assert item.cost == 10.0
        item, stolen_from = plan.take(0)
        assert stolen_from == 1
        assert item.cost == 3.0  # tail of the victim, not its head
        assert plan.steals == 1

    def test_equal_costs_tie_break_on_index(self):
        a = sched.WorkPlan([_item(i, 1.0) for i in range(6)], shards=3)
        b = sched.WorkPlan([_item(i, 1.0) for i in range(6)], shards=3)
        assert [[it.index for it in bin_] for bin_ in a.bins] == [
            [it.index for it in bin_] for bin_ in b.bins
        ]

    def test_drained_plan_returns_none(self):
        plan = sched.WorkPlan([_item(0, 1.0)], shards=2)
        assert plan.take(0) is not None
        assert plan.take(0) is None and plan.take(1) is None
        assert plan.remaining() == 0


class TestProgressLine:
    def test_renders_done_rate_and_running_apps(self):
        stream = io.StringIO()
        line = sched.ProgressLine(total=2, total_cost=2.0, stream=stream)
        line.start(0, "alpha")
        assert "running: alpha" in stream.getvalue()
        line.finish(0, "alpha", 1.0)
        assert "[1/2]" in stream.getvalue()
        assert "apps/s" in stream.getvalue()
        line.close()
        assert stream.getvalue().endswith("\n")


class TestRunShardedDirect:
    def _options(self):
        return dataclasses.asdict(SierraOptions())

    def test_worker_crash_respawns_and_isolates(self):
        """A worker that dies mid-task costs exactly that task — the
        replacement worker drains the rest of the plan."""
        mp_context = multiprocessing.get_context("fork")
        items = [
            sched.WorkItem(index=0, name="quickstart", cost=2.0),
            sched.WorkItem(
                index=1, name="quickstart", cost=2.0, inject_crash=True
            ),
            sched.WorkItem(index=2, name="quickstart", cost=2.0),
        ]
        records = sched.run_sharded(
            mp_context, items, self._options(), shards=2, timeout_s=60.0
        )
        assert [r.status for r in records] == [
            STATUS_OK,
            STATUS_ERROR,
            STATUS_OK,
        ]
        assert records[1].error["type"] == "WorkerDied"

    def test_records_return_in_input_order(self):
        mp_context = multiprocessing.get_context("fork")
        names = seeded_corpus(count=4, seed=1, max_size=0)
        items = [
            sched.WorkItem(index=i, name=n, cost=float(4 - i))
            for i, n in enumerate(names)
        ]
        records = sched.run_sharded(
            mp_context, items, self._options(), shards=2, timeout_s=60.0
        )
        assert [r.app for r in records] == names


class TestWorkerHandle:
    def test_worker_binds_the_log_fields_its_task_carries(self, tmp_path):
        """A persistent worker is forked before its caller binds a job's
        log fields, so the task carries them and the worker binds them on
        its own stage log lines."""
        import json
        import os

        from repro.obs import log as obs_log

        path = tmp_path / "log.jsonl"
        with open(path, "w") as stream:
            obs_log.configure(level="debug", json_mode=True, stream=stream)
            handle = sched.WorkerHandle(multiprocessing.get_context("fork"))
            try:
                handle.spawn()  # forked before any job exists
                handle.send(
                    sched.WorkItem(index=0, name="quickstart"),
                    dataclasses.asdict(SierraOptions()),
                    timeout_s=60.0,
                    log={"job_id": "j-1", "worker": "worker-7"},
                )
                record = handle.result()
            finally:
                handle.stop()
                obs_log.unconfigure()
        assert record.status == STATUS_OK
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        child = [r for r in lines if r["pid"] != os.getpid()]
        assert child, "the worker logged nothing"
        assert all(r.get("job_id") == "j-1" for r in child)
        assert all(r.get("worker") == "worker-7" for r in child)
        assert all(r.get("app") == "quickstart" for r in child)

    def test_idle_worker_exits_cleanly_on_stop(self):
        handle = sched.WorkerHandle(multiprocessing.get_context("fork"))
        handle.spawn()
        proc = handle.proc
        handle.stop()
        assert proc.exitcode == 0  # returned, not terminated or killed
        assert handle.proc is None and not handle.busy


class TestDriverIntegration:
    def test_core_budget_lands_in_the_report(self):
        apps = seeded_corpus(count=2, seed=0, max_size=0)
        run = run_corpus(
            apps=apps, shards=2, options=SierraOptions(parallelism=4)
        )
        assert run.shards == 2
        assert run.effective_parallelism == sched.core_budget(2, requested=4)
        data = run.to_dict()
        assert data["shards"] == 2
        assert data["effective_parallelism"] == run.effective_parallelism
        assert all(r.status == STATUS_OK for r in run.records)

    def test_shard_events_reach_parent_hooks(self):
        kinds = []
        hook = lambda event: kinds.append(event.kind)  # noqa: E731
        obs.add_hook(hook)
        try:
            run_corpus(apps=seeded_corpus(count=2, seed=4, max_size=0), shards=2)
        finally:
            obs.remove_hook(hook)
        assert kinds.count(sched.EVENT_SHARD_START) == 2
        assert kinds.count(sched.EVENT_SHARD_FINISH) == 2

    def test_gauges_zeroed_after_run(self):
        from repro.obs import metrics

        run_corpus(apps=seeded_corpus(count=2, seed=4, max_size=0), shards=2)
        assert metrics.registry().value("corpus.queue_depth") == 0
        assert metrics.registry().value("corpus.busy_workers") == 0


def _result_key(run):
    return {
        r.app: (
            r.status,
            frozenset((row["fingerprint"], row["verdict"]) for row in r.races),
        )
        for r in run.records
    }


@pytest.mark.corpus_smoke
class TestShardedEquivalence:
    def test_family_mix_sharded_equals_serial_with_full_recall(self):
        """The CI smoke: a seeded 24-app family mix through the sharded
        scheduler must match the serial run fingerprint-for-fingerprint
        and keep recall 1.0 on every injected race."""
        apps = seeded_corpus(count=24, seed=9, max_size=1)
        serial = run_corpus(apps=apps, timeout_s=120.0)
        sharded = run_corpus(apps=apps, shards=3, timeout_s=120.0)
        assert _result_key(sharded) == _result_key(serial)
        assert [r.app for r in sharded.records] == apps
        assert sharded.shards == 3 and serial.shards == 1
        scores = [
            score_detection(
                family_ground_truth(r.app), [row["field"] for row in r.races]
            )
            for r in sharded.records
        ]
        agg = aggregate_scores(scores)
        assert agg["recall"] == 1.0
        assert all(s["leaked_eliminated"] == [] for s in scores)

    def test_fault_injection_semantics_survive_sharding(self):
        apps = seeded_corpus(count=4, seed=2, max_size=0) + ["quickstart"]
        run = run_corpus(
            apps=apps,
            shards=3,
            inject_fail=["quickstart"],
            inject_hang=[apps[0]],
            timeout_s=2.0,
        )
        statuses = {r.app: r.status for r in run.records}
        assert statuses["quickstart"] == STATUS_ERROR
        assert statuses[apps[0]] == STATUS_TIMEOUT
        assert all(
            statuses[a] == STATUS_OK for a in apps[1:4]
        ), statuses
        assert run.exit_code == 1
        hung = next(r for r in run.records if r.app == apps[0])
        assert hung.error["stuck_stage"] == "inject-hang"
