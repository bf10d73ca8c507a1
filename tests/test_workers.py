"""The realization pool: index order, one BLAS thread per call, and worker
processes that never outlive the sweep that started them."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import ModuleType, SimpleNamespace

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
    """Every `_map_ordered` call first pins each OpenBLAS mapped so far to one
    thread, in the calling process, for good: each library's setter runs
    once per process, before any fork, and never in a worker.  After a fork,
    a setter call, even one that sets 1, starts helper threads that spin.
    A library that maps after an earlier sweep, such as SciPy's when the
    first flat-band model follows a Poincare sweep, is pinned by the next
    call, which finds it because sys.modules has grown."""

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

        def spy(lib, name, real=True):
            def set_local(n):
                calls.append((name, n))
                return lib.openblas_set_num_threads_local(n) if real else 0
            return SimpleNamespace(_name=name, openblas_set_num_threads_local=set_local)

        # one more library maps after the first sweep, as SciPy's does when a
        # flat-band model follows a Poincare sweep; its spy sets nothing,
        # since this process has forked by then
        mapped = [spy(lib, lib._name) for lib in libs]
        late = spy(libs[0], "late-openblas.so", real=False)
        engine._pin_blas()  # this process stays pinned once the test is over
        monkeypatch.setattr(engine, "_openblas_libs", lambda: list(mapped))
        engine._pin_mapped.cache_clear()  # as in a new process
        monkeypatch.setattr(engine, "_PINNED", set())

        def sweeps():
            return [engine._map_ordered(lambda i: len(calls), 3, workers)
                    for workers in (2, 1, 2)]

        assert sweeps() == [[len(libs)] * 3] * 3  # no worker called a setter
        assert calls == [(lib._name, 1) for lib in libs]
        mapped.append(late)
        monkeypatch.setitem(sys.modules, "late_blas_module", ModuleType("late"))
        assert sweeps() == [[len(libs) + 1] * 3] * 3
        assert calls == [(lib._name, 1) for lib in libs] + [("late-openblas.so", 1)]

    def test_no_openblas_warns_once(self, monkeypatch, capsys):
        engine._pin_blas()  # this process stays pinned once the test is over
        monkeypatch.setattr(engine, "_openblas_libs", lambda: [])
        monkeypatch.setattr(engine, "_PINNED", set())
        engine._pin_mapped.cache_clear()
        engine._warn_unpinned.cache_clear()
        engine._map_ordered(lambda i: i, 1, 1)
        monkeypatch.setitem(sys.modules, "late_blas_module", ModuleType("late"))
        engine._map_ordered(lambda i: i, 1, 1)
        assert capsys.readouterr().err.count("BLAS threads are not pinned") == 1


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


SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(script: str) -> str:
    """stdout of `script` in a new interpreter that imports qqft from this
    checkout; fails on a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestScipyBoundary:
    """SciPy is loaded by flat-band models alone: `import qqft` and the
    compile, verify and poincare commands never load `scipy.linalg`, and a
    flat-band sweep loads it in its parent, before any worker forks."""

    def test_compile_verify_and_poincare_load_no_scipy(self, tmp_path):
        out = run_fresh(f"""
            import sys
            import qqft
            loaded = ["scipy.linalg" in sys.modules]
            from qqft.cli import main
            out = {str(tmp_path)!r}
            assert main(["compile", "--N", "6", "--out", out + "/c"]) == 0
            assert main(["verify", out + "/c/seq_generic_N6.json"]) == 0
            assert main(["poincare", "--N", "6", "--realizations", "2",
                         "--sigma", "0,1e-2", "--workers", "2",
                         "--out", out + "/p"]) == 0
            loaded.append("scipy.linalg" in sys.modules)
            print("loaded", loaded)
            """)
        assert out.splitlines()[-1] == "loaded [False, False]"

    @needs_two_cores
    def test_phase_diagram_loads_scipy_before_its_workers(self):
        # no model is built before the sweep; the wrapper records what the
        # parent holds when the pool starts and what each worker reads
        out = run_fresh(f"""
            import json
            import sys
            from qqft import engine, haldane
            GETTERS = {GETTERS!r}

            def blas_threads():
                return [next(getattr(lib, name) for name in GETTERS
                             if hasattr(lib, name))()
                        for lib in engine._openblas_libs()]

            def map_ordered(fn, count, workers):
                seen["scipy"] = "scipy.linalg" in sys.modules
                seen["libs"] = len(engine._openblas_libs())
                rows = engine._map_ordered(lambda i: (fn(i), blas_threads()),
                                           count, workers)
                seen["workers"] = [threads for _, threads in rows]
                return [row for row, _ in rows]

            seen = {{}}
            haldane._map_ordered = map_ordered
            haldane.phase_diagram([-1.5, 1.5], [0.0], engine.NoiseModel(1e-2, 3),
                                  grid=4, workers=2)
            seen["after"] = blas_threads()
            print(json.dumps(seen))
            """)
        seen = json.loads(out.splitlines()[-1])
        assert seen["scipy"]
        ones = [1] * seen["libs"]
        assert seen["workers"] == [ones, ones]
        assert seen["after"] == ones
