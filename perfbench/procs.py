"""Process accounting from outside: descendants, CPU time, peak RSS and a
bounded stop for the serve daemon. Linux ``/proc`` only."""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import time
from typing import Dict, List

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        raw = fh.read().decode("ascii", "replace")
    return raw[raw.rindex(")") + 2 :].split()


def _all_stats() -> Dict[int, List[str]]:
    out = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                out[int(entry)] = _stat(int(entry))
            except (OSError, ValueError):
                continue  # exited while we looked
    return out


def live_descendants(root: int) -> List[int]:
    """Running (not zombie) descendants of ``root``."""
    stats = _all_stats()
    children: Dict[int, List[int]] = {}
    for pid, fields in stats.items():
        children.setdefault(int(fields[1]), []).append(pid)
    out, todo = [], list(children.get(root, ()))
    while todo:
        pid = todo.pop()
        if stats[pid][0] != "Z":
            out.append(pid)
        todo.extend(children.get(pid, ()))
    return sorted(out)


def session_members(sid: int) -> List[int]:
    """Running processes of session ``sid`` (a daemon started with
    ``start_new_session`` leads one; its job children stay in it)."""
    return sorted(
        pid
        for pid, fields in _all_stats().items()
        if int(fields[3]) == sid and fields[0] != "Z"
    )


def tree_cpu_s(pid: int) -> float:
    """user+sys of ``pid`` plus its waited-for children, in seconds."""
    fields = _stat(pid)
    return sum(int(v) for v in fields[11:15]) / _TICK


def own_cpu_s() -> float:
    """user+sys of this process and every child it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any waited-for descendant."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def stop_daemon(proc: subprocess.Popen, grace_s: float = 15.0) -> List[int]:
    """Stop a daemon the way an operator does (SIGINT, its Ctrl-C path),
    then SIGKILL its whole session after ``grace_s``. Returns the pids that
    were still alive at the deadline, i.e. what the daemon leaked."""
    sid = proc.pid
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        if proc.poll() is not None and not session_members(sid):
            return []
        time.sleep(0.05)
    survivors = session_members(sid)
    kill_all(survivors)
    try:
        proc.wait(5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    return survivors


def kill_all(pids: List[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in pids:
        # reap our own children; others are reaped by their parents
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
