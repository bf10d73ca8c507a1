"""Suite-wide guard: no test may leave a child process behind."""

import os
from pathlib import Path

import pytest


def process_state(pid: int):
    """One-letter state of `pid` (R, S, Z, ...) and its parent pid, or None
    once the process is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name in parentheses may itself hold spaces or parentheses
    state, ppid = stat.rsplit(")", 1)[1].split()[:2]
    return state, int(ppid)


def child_pids(pid: int = None) -> list:
    """Pids of the children of `pid` (this process by default), reaped or
    not.  Reads the parent pid of every process in /proc, since
    /proc/<pid>/task/*/children needs a kernel option that is often off."""
    pid = os.getpid() if pid is None else pid
    found = []
    for entry in Path("/proc").glob("[0-9]*"):
        info = process_state(int(entry.name))
        if info is not None and info[1] == pid:
            found.append(int(entry.name))
    return found


@pytest.fixture(scope="session", autouse=True)
def no_child_process_left():
    yield
    left = child_pids()
    assert not left, f"child processes alive after the suite: {left}"
