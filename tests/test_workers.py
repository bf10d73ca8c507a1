"""The realization pool: index order, one BLAS thread per call, and worker
processes that never outlive the sweep that started them."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from conftest import child_pids, process_state
from qqft import engine, haldane, poincare
from qqft.cli import main

CORES = len(os.sched_getaffinity(0))
needs_two_cores = pytest.mark.skipif(
    CORES < 2 or not sys.platform.startswith("linux"),
    reason="worker processes need Linux and two cores")


GETTERS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads",
           "scipy_openblas_get_num_threads64_")


def blas_threads() -> list:
    """Thread count of each OpenBLAS in this process, read by its getter: a
    setter call would itself start helper threads in a forked process."""
    return [next(getattr(lib, name) for name in GETTERS if hasattr(lib, name))()
            for lib in engine._openblas_libs()]


def cpu_over_sleep(seconds: float = 0.2) -> float:
    """CPU time of this process, all its threads, while it sleeps."""
    before = time.process_time()
    time.sleep(seconds)
    return time.process_time() - before


def assert_no_children():
    assert multiprocessing.active_children() == []
    assert child_pids() == []


class TestMapOrdered:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_index_order(self, workers):
        assert engine._map_ordered(lambda i: i * i, 7, workers) == [
            i * i for i in range(7)]

    @needs_two_cores
    def test_calls_run_in_worker_processes(self):
        pids = set(engine._map_ordered(lambda i: os.getpid(), 8, 2))
        assert os.getpid() not in pids
        assert_no_children()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_reaches_caller(self, workers):
        def fn(i):
            if i == 3:
                raise haldane.GapClosedError(f"forced at {i}")
            return i

        with pytest.raises(haldane.GapClosedError, match="forced at 3"):
            engine._map_ordered(fn, 6, workers)
        assert_no_children()

    def test_zero_count_rejected(self):
        for count in (0, 1.0, True):  # True once ran as one call
            with pytest.raises(ValueError, match="count must be an integer >= 1"):
                engine._map_ordered(lambda i: i, count, 2)


class TestBlasPin:
    """The first `_map_ordered` call pins every OpenBLAS to one thread before
    any fork, for good; no worker calls a setter.  After a fork, a setter
    call, even one that sets 1, starts helper threads that spin."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_blas_thread_in_calls_and_after(self, workers):
        ones = [1] * len(engine._openblas_libs())
        if not ones:
            pytest.skip("no OpenBLAS in this process")
        assert engine._map_ordered(lambda i: blas_threads(), 4, workers) == [ones] * 4
        assert blas_threads() == ones

    @needs_two_cores
    def test_worker_starts_no_blas_thread(self):
        H = np.random.default_rng(0).normal(size=(256, 256))
        H = H + H.T

        def task(i):
            scipy.linalg.eigh(H)
            return len(os.listdir("/proc/self/task")), cpu_over_sleep()

        for threads, cpu in engine._map_ordered(task, 2, 2):
            assert threads == 1
            assert cpu < 0.03

    @needs_two_cores
    def test_serial_call_after_a_pool_starts_no_blas_thread(self):
        engine._map_ordered(lambda i: i, 2, 2)
        engine._map_ordered(lambda i: i, 1, 1)
        assert cpu_over_sleep() < 0.03

    def test_setters_called_once_per_process(self, monkeypatch):
        libs = [lib for lib in engine._openblas_libs()
                if hasattr(lib, "openblas_set_num_threads_local")]
        if not libs:
            pytest.skip("no OpenBLAS exports openblas_set_num_threads_local")
        calls = []

        def spy(lib):
            def set_local(n):
                calls.append((lib._name, n))
                return lib.openblas_set_num_threads_local(n)
            return SimpleNamespace(openblas_set_num_threads_local=set_local)

        monkeypatch.setattr(engine, "_openblas_libs", lambda: [spy(lib) for lib in libs])
        engine._pin_blas.cache_clear()  # as in a new process
        seen = [engine._map_ordered(lambda i: len(calls), 3, workers)
                for workers in (2, 1, 2)]
        assert calls == [(lib._name, 1) for lib in libs]
        assert seen == [[len(libs)] * 3] * 3  # no worker called a setter


@needs_two_cores
class TestWorkerLifetime:
    def test_phase_diagram_joins_its_workers(self):
        cells = haldane.phase_diagram([-np.pi / 2, np.pi / 2], [0.0, 1.0],
                                      engine.NoiseModel(1e-2, 3), grid=4,
                                      workers=2)
        assert len(cells) == 4
        assert_no_children()

    def test_symmetry_sweep_joins_its_workers(self):
        points, _ = poincare.noise_sweep_symmetry(
            poincare.build_dispersion(6, 2),
            engine.NoiseModel((0.0, 1e-2), 5), 3, workers=3)
        assert len(points) == 2
        assert_no_children()

    def test_cli_joins_its_workers(self, tmp_path, capsys):
        assert main(["flatband", "--grid", "4", "--realizations", "2",
                     "--sigma", "0,1e-3", "--phase-grid", "2", "--seed", "5",
                     "--workers", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert_no_children()

    def test_killed_parent_leaves_no_worker(self, tmp_path):
        # 16 Bott cells at grid 16 keep two workers busy for seconds
        proc = subprocess.Popen(
            [sys.executable, "-m", "qqft", "flatband", "--sigma", "",
             "--phase-grid", "4", "--workers", "2", "--out", str(tmp_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60
            workers = []
            while len(workers) < 2:
                assert proc.poll() is None, "run ended before its workers showed"
                assert time.monotonic() < deadline, "workers never showed"
                time.sleep(0.02)
                workers = child_pids(proc.pid)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        deadline = time.monotonic() + 5
        states = [process_state(pid) for pid in workers]
        while any(s is not None and s[0] != "Z" for s in states):
            assert time.monotonic() < deadline, f"workers left: {states}"
            time.sleep(0.05)
            states = [process_state(pid) for pid in workers]
