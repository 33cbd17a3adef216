"""End-to-end and unit tests of the ``repro serve`` daemon.

One module-scoped daemon (ephemeral port, forked workers, shared
substrate cache) carries the e2e tests; the job-store unit tests open
their own ledger files.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.core import SierraOptions
from repro.obs.history import KIND_ANALYZE, RunLedger
from repro.serve import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobStore,
    ServeClient,
    ServeDaemon,
    ServeError,
    merge_job_options,
    percentile,
)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    cache = root / "cache"
    cache.mkdir()
    options = SierraOptions(cache_dir=str(cache))
    with ServeDaemon(
        str(root / "runs.sqlite"), options=options, workers=2, port=0
    ) as running:
        yield running


@pytest.fixture(scope="module")
def client(daemon):
    return ServeClient(daemon.url)


# ----------------------------------------------------------------------
# e2e: submit -> poll -> fetch
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_submit_poll_fetch_roundtrip(client):
    job = client.submit("quickstart")
    assert job["status"] == QUEUED
    assert job["poll"] == f"/v1/jobs/{job['job_id']}"

    final = client.wait(str(job["job_id"]), timeout_s=90)
    assert final["status"] == DONE
    assert final["run_id"]
    assert final["elapsed_s"] > 0

    report = client.report(str(final["run_id"]))
    assert report["kind"] == "serve"
    assert report["meta"]["job_id"] == job["job_id"]
    assert set(report["apps"]) == {"quickstart"}
    # quickstart is the paper's Fig. 1 app: its one true race must survive
    assert any(r["field"] for r in report["races"])


@pytest.mark.serve_smoke
def test_health_and_metrics(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["workers"] == 2
    assert set(health["jobs"]) == {QUEUED, RUNNING, DONE, FAILED}
    scraped = client.metrics()
    assert "serve.requests_total" in scraped
    assert "serve.request_seconds" in scraped


def test_dashboard_served(client):
    html = client.dashboard()
    assert html.lstrip().startswith("<!DOCTYPE html>" ) or "<html" in html


def test_submit_unknown_app_is_400(client):
    with pytest.raises(ServeError) as err:
        client.submit("nonesuch")
    assert err.value.status == 400


def test_submit_unknown_option_is_400(client):
    with pytest.raises(ServeError) as err:
        client.submit("quickstart", {"frobnicate": 1})
    assert err.value.status == 400
    assert "frobnicate" in str(err.value)


def test_unknown_job_is_404(client):
    with pytest.raises(ServeError) as err:
        client.job("jNOPE")
    assert err.value.status == 404


def test_unknown_route_is_404(client):
    with pytest.raises(ServeError) as err:
        client._request("GET", "/v2/everything")
    assert err.value.status == 404


def _raw_post_status(daemon, content_length: str) -> str:
    """POST /v1/jobs over a raw socket declaring ``content_length`` but
    sending no body; return the response's status line."""
    import socket
    from urllib.parse import urlparse

    url = urlparse(daemon.url)
    with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
        sock.sendall(
            (
                "POST /v1/jobs HTTP/1.1\r\n"
                f"Host: {url.hostname}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {content_length}\r\n\r\n"
            ).encode("ascii")
        )
        # the client keeps its side open: a handler that tried to read the
        # body would block here until the socket timeout
        response = sock.makefile("rb").readline()
    return response.decode("ascii").strip()


def test_negative_content_length_is_400(daemon, client):
    assert _raw_post_status(daemon, "-1").split()[1] == "400"
    assert client.health()["status"] == "ok"


def test_oversized_content_length_is_413(daemon, client):
    from repro.serve.server import MAX_BODY_BYTES

    status = _raw_post_status(daemon, str(MAX_BODY_BYTES + 1))
    assert status.split()[1] == "413"
    assert client.health()["status"] == "ok"


# ----------------------------------------------------------------------
# concurrency: N submissions -> N distinct ledger runs
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_concurrent_submissions_distinct_runs(daemon, client):
    n = 6
    finals = [None] * n
    errors = []

    def one(i):
        try:
            job = client.submit("quickstart")
            finals[i] = client.wait(str(job["job_id"]), timeout_s=120)
        except Exception as exc:  # noqa: BLE001 — collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(180)
    assert not errors
    assert all(f is not None and f["status"] == DONE for f in finals)
    run_ids = {f["run_id"] for f in finals}
    assert len(run_ids) == n  # one ledger run per job, never shared
    report = client.report(sorted(run_ids)[0])
    assert set(report["apps"]) == {"quickstart"}


# ----------------------------------------------------------------------
# fault isolation: a crashing worker fails the job, never hangs the client
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_worker_crash_fails_job_not_client(client):
    job = client.submit("quickstart", {"inject_fail": True})
    final = client.wait(str(job["job_id"]), timeout_s=90)
    assert final["status"] == FAILED
    assert final["error"]["type"] == "RuntimeError"
    assert "injected failure" in final["error"]["message"]
    # and the daemon survives: the next job runs fine
    ok = client.wait(str(client.submit("quickstart")["job_id"]), timeout_s=90)
    assert ok["status"] == DONE


def test_wait_timeout_raises_not_hangs(client):
    job = client.submit("quickstart", {"inject_hang": True})
    with pytest.raises(ServeError, match="still"):
        client.wait(str(job["job_id"]), timeout_s=0.5)


# ----------------------------------------------------------------------
# warm starts through the shared substrate cache
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_second_submission_warm_starts(client):
    first = client.wait(str(client.submit("newsreader")["job_id"]), timeout_s=120)
    second = client.wait(str(client.submit("newsreader")["job_id"]), timeout_s=120)
    assert first["status"] == DONE and second["status"] == DONE

    def worklist(final):
        metrics = client.report(str(final["run_id"]))["apps"]["newsreader"][
            "metrics"
        ]
        entry = metrics.get("pointsto.worklist_iterations")
        return int(entry["value"]) if entry else 0

    assert worklist(first) > 0  # the cold run actually solved points-to
    assert worklist(second) == 0  # the warm run replayed the cached substrate


# ----------------------------------------------------------------------
# serve ≡ CLI: the same app one-shot and via the daemon diffs clean
# ----------------------------------------------------------------------
@pytest.mark.serve_smoke
def test_serve_results_equal_cli_oneshot(daemon, client, quickstart_apk):
    from repro.core import Sierra
    from repro.obs.diffing import diff_runs

    options = dataclasses.asdict(
        SierraOptions(cache_dir=daemon.pool.options.cache_dir)
    )
    result = Sierra(daemon.pool.options).analyze(quickstart_apk)
    with RunLedger(daemon.history) as ledger:
        oneshot = ledger.begin_run(
            KIND_ANALYZE, options, meta={"app": "quickstart"}
        )
        ledger.record_analysis(oneshot, "quickstart", result, elapsed_s=0.1)
    final = client.wait(str(client.submit("quickstart")["job_id"]), timeout_s=120)

    diff = client.diff(oneshot, str(final["run_id"]))
    assert diff["new_races"] == []
    assert diff["fixed_races"] == []
    assert diff["verdict_flips"] == []


def _wait_until(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    return predicate()


def test_stop_is_bounded_with_a_job_in_flight(tmp_path):
    """stop() cancels a hanging job's worker within its budget, leaves no
    live child, and leaves the job ``running`` for recover() to requeue."""
    history = str(tmp_path / "runs.sqlite")
    daemon = ServeDaemon(history, workers=2, port=0)
    daemon.start()
    try:
        handles = list(daemon.pool._handles.values())
        procs = [h.proc for h in handles]
        job = ServeClient(daemon.url).submit("quickstart", {"inject_hang": True})
        # the task has reached a worker process (not just the claim)
        assert _wait_until(lambda: any(h.busy for h in handles))
    finally:
        t0 = time.monotonic()
        daemon.stop()
        elapsed = time.monotonic() - t0
    assert elapsed < 6.0
    # the busy worker and the idle one are both gone
    live = {p.pid for p in multiprocessing.active_children()}
    assert len(procs) == 2 and not live & {p.pid for p in procs}
    with JobStore(history) as store:
        assert store.get(job["job_id"]).status == RUNNING
        assert store.recover() == 1
        assert store.get(job["job_id"]).status == QUEUED


def test_sigkilled_worker_fails_job_and_is_respawned(tmp_path):
    with ServeDaemon(str(tmp_path / "runs.sqlite"), workers=1, port=0) as daemon:
        client = ServeClient(daemon.url)
        handle = daemon.pool._handles["worker-0"]
        job = client.submit("quickstart", {"inject_hang": True})
        assert _wait_until(lambda: handle.busy)
        killed = handle.proc.pid
        os.kill(killed, signal.SIGKILL)

        final = client.wait(str(job["job_id"]), timeout_s=30)
        assert final["status"] == FAILED
        assert final["error"]["type"] == "WorkerDied"
        assert handle.proc is not None and handle.proc.pid != killed
        ok = client.wait(str(client.submit("quickstart")["job_id"]), timeout_s=90)
        assert ok["status"] == DONE


def test_daemon_recovers_orphaned_jobs(tmp_path):
    history = tmp_path / "runs.sqlite"
    with JobStore(str(history)) as store:
        job = store.submit("quickstart")
        assert store.claim("w0").job_id == job.job_id  # left RUNNING: a "crash"
    with ServeDaemon(str(history), workers=1, port=0) as daemon:
        assert daemon.recovered_jobs == 1
        final = ServeClient(daemon.url).wait(job.job_id, timeout_s=120)
        assert final["status"] == DONE


# ----------------------------------------------------------------------
# job store unit tests
# ----------------------------------------------------------------------
def test_job_store_lifecycle(tmp_path):
    with JobStore(str(tmp_path / "jobs.sqlite")) as store:
        job = store.submit("quickstart", {"k": 3})
        assert job.status == QUEUED and not job.terminal
        assert store.counts()[QUEUED] == 1

        claimed = store.claim("w0")
        assert claimed.job_id == job.job_id
        assert claimed.status == RUNNING and claimed.worker == "w0"
        assert store.claim("w1") is None  # exactly one claimer wins

        store.finish(job.job_id, DONE, run_id="r1", elapsed_s=1.5)
        final = store.get(job.job_id)
        assert final.terminal and final.run_id == "r1"
        assert final.options == {"k": 3}
        assert store.counts() == {QUEUED: 0, RUNNING: 0, DONE: 1, FAILED: 0}


def test_job_store_claim_is_fifo(tmp_path):
    with JobStore(str(tmp_path / "jobs.sqlite")) as store:
        first = store.submit("quickstart")
        store.submit("newsreader")
        assert store.claim("w").job_id == first.job_id


def test_job_store_finish_rejects_non_terminal(tmp_path):
    with JobStore(str(tmp_path / "jobs.sqlite")) as store:
        job = store.submit("quickstart")
        with pytest.raises(ValueError):
            store.finish(job.job_id, RUNNING)


def test_job_store_concurrent_claims_unique(tmp_path):
    with JobStore(str(tmp_path / "jobs.sqlite")) as store:
        for _ in range(8):
            store.submit("quickstart")
        claimed, errors = [], []

        def worker(name):
            try:
                while True:
                    job = store.claim(name)
                    if job is None:
                        return
                    claimed.append(job.job_id)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert len(claimed) == 8
        assert len(set(claimed)) == 8  # no job claimed twice


# ----------------------------------------------------------------------
# option merging + percentile helpers
# ----------------------------------------------------------------------
def test_merge_job_options_overlays_and_rejects():
    base = SierraOptions(cache_dir="/srv/cache")
    merged = merge_job_options(base, {"selector": "kcfa", "k": 3})
    assert merged["selector"] == "kcfa" and merged["k"] == 3
    assert merged["cache_dir"] == "/srv/cache"  # server-owned, not a job knob
    with pytest.raises(ValueError, match="cache_dir"):
        merge_job_options(base, {"cache_dir": "/etc"})
    with pytest.raises(ValueError, match="nope"):
        merge_job_options(base, {"nope": 1})
    # inject_* flags pass validation but never leak into analysis options
    merged = merge_job_options(base, {"inject_fail": True})
    assert "inject_fail" not in merged


def test_percentile_exact():
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 99) == 7.0
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 100) == 4.0
    assert percentile(values, 25) == 1.75
    with pytest.raises(ValueError):
        percentile(values, 101)
