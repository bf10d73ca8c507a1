"""The reference kernel that the benchmark's throughput is measured against.

A shared host changes speed by tens of percent over seconds to minutes (other
tenants on the same cores), in wall and in CPU time alike, and a run of one
workload cannot average that out.  So every worker times this kernel before
its first CLI call and after each call, and the end-to-end throughput and CPU
metrics count time in units of the kernel's duration next to the call: one
`ref` is one run of `reference()` at that moment on that machine.

A workload that keeps several cores busy is measured against the kernel run
in as many processes at once (`Reference`), so that the reference samples every
core the workload runs on.

The kernel is a fixed mix of what the workloads spend their time on at small
sizes: a Python loop, 33-dim complex matrix products and elementwise ufuncs,
all single-threaded.  It does not touch `qqft`, so a change to the program
never changes it.  Changing the kernel changes the unit of every metric that
uses it: compare such runs only with runs of the same kernel.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

DIM = 33
STEPS = 10_000

_rng = np.random.default_rng(20220409)
_UNITARY = np.linalg.qr(_rng.standard_normal((DIM, DIM))
                        + 1j * _rng.standard_normal((DIM, DIM)))[0]
_PHASES = np.exp(1j * np.linspace(0.0, np.pi, DIM))


def reference() -> tuple:
    """Run the kernel once; return its (wall, process CPU) seconds."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    state = np.eye(DIM, dtype=complex)
    total = 0.0
    for step in range(STEPS):
        state = _UNITARY @ state
        column = _PHASES * state[:, step % DIM]
        total += abs(complex(column[step % DIM]))
        total += sum([k * 0.5 for k in range(30)])
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Reference:
    """The kernel run at once in `processes` processes, this one and helpers.

    Calling it returns the mean (wall, CPU) seconds of one kernel run.  The
    helpers are stopped by `close()` (or leaving the `with` block), and stop by
    themselves when this process goes away.
    """

    def __init__(self, processes: int = 1):
        ctx = multiprocessing.get_context("spawn")
        self._helpers = []
        try:
            for _ in range(processes - 1):
                mine, theirs = ctx.Pipe()
                proc = ctx.Process(target=_serve, args=(theirs,), daemon=True)
                proc.start()
                theirs.close()
                self._helpers.append((proc, mine))
            self()      # warm-up: every helper has imported numpy after this
        except BaseException:
            self.close()
            raise

    def __call__(self) -> tuple:
        for _, conn in self._helpers:
            conn.send(None)
        runs = [reference()] + [conn.recv() for _, conn in self._helpers]
        return tuple(sum(run[i] for run in runs) / len(runs) for i in (0, 1))

    def close(self):
        for _, conn in self._helpers:
            conn.close()
        for proc, _ in self._helpers:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _serve(conn):
    """A helper's loop: one kernel run per request, until the pipe closes."""
    try:
        while True:
            conn.recv()
            conn.send(reference())
    except EOFError:
        pass
