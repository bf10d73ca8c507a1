"""The realization pool: index order, one BLAS thread per call, and worker
processes that never outlive the sweep that started them."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import child_pids, process_state
from qqft import engine, haldane, poincare
from qqft.cli import main

CORES = len(os.sched_getaffinity(0))
needs_two_cores = pytest.mark.skipif(
    CORES < 2 or not sys.platform.startswith("linux"),
    reason="worker processes need Linux and two cores")


def blas_threads() -> list:
    """Thread count of each OpenBLAS in this process, left unchanged."""
    setters = engine._blas_thread_setters()
    counts = [set_local(1) for set_local in setters]
    for set_local, count in zip(setters, counts):
        set_local(count)
    return counts


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_blas_thread_per_call_then_restored(self, workers):
        before = blas_threads()
        if not before:
            pytest.skip("no OpenBLAS exports openblas_set_num_threads_local")
        inside = engine._map_ordered(lambda i: blas_threads(), 4, workers)
        assert inside == [[1] * len(before)] * 4
        assert blas_threads() == before

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            engine._map_ordered(lambda i: i, 0, 2)


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
            poincare.build_dispersion(6, 2), poincare.equivalence_classes(6, 2),
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
