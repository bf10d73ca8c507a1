"""`engine._noise_sweep` against its reference: one column of every sigma
per realization.  Measuring the zero sigmas once, and sharing realization 0
with the caller, must not change a bit."""

import numpy as np
import pytest

from qqft import engine, haldane, poincare
from qqft.engine import NoiseModel, SweepPoint


def sweep_reference(measure, names, sigmas, n, seed, workers, first=None):
    """The sweep that measured realization r as the full column
    NoiseModel(tuple(sigmas), seed, stream_id=r), zero sigmas included.
    Rows of realization 0 that the caller shares (`first`) are ignored: it
    is measured here again, so that the shared rows are checked too."""
    sigmas = list(sigmas)

    def column(r):
        return measure(NoiseModel(tuple(sigmas), seed, stream_id=r))

    columns = engine._map_ordered(column, n, workers) if sigmas else []
    return [SweepPoint(sigma=sigma, samples=dict(zip(
                names, map(np.array, zip(*(rows[k] for rows in columns))))))
            for k, sigma in enumerate(sigmas)]


def symmetry_points(N, gamma, *args, **kwargs):
    """The SweepPoints of `noise_sweep_symmetry` for the (N, gamma) crystal."""
    return poincare.noise_sweep_symmetry(poincare.build_dispersion(N, gamma),
                                         poincare.equivalence_classes(N, gamma),
                                         *args, **kwargs)[0]


SIGMA_LISTS = [
    [0.0, 1e-3, 2e-2],      # zero first
    [1e-3, 0.0, 2e-2],      # in the middle
    [2e-2, 1e-3, 0.0],      # last
    [0.0],                  # zero only
    [1e-3, 2e-2],           # no zero
]


def both_sweeps(monkeypatch, module, sweep, *args, **kwargs):
    """(`sweep` on `_noise_sweep`, `sweep` on `sweep_reference`)."""
    got = sweep(*args, **kwargs)
    monkeypatch.setattr(module, "_noise_sweep", sweep_reference)
    return got, sweep(*args, **kwargs)


def assert_same_points(got, want, names):
    assert [p.sigma for p in got] == [p.sigma for p in want]
    for a, b in zip(got, want):
        for name in names:
            assert a.samples[name].dtype == b.samples[name].dtype
            assert a.samples[name].tobytes() == b.samples[name].tobytes()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("on_diagonal", [False, True])
@pytest.mark.parametrize("sigmas", SIGMA_LISTS)
def test_symmetry_sweep_matches_reference(monkeypatch, sigmas, on_diagonal,
                                          workers):
    got, want = both_sweeps(monkeypatch, poincare,
                             symmetry_points, 6, 2, sigmas, 3,
                             seed=13, workers=workers,
                             noise_on_diagonal=on_diagonal)
    assert_same_points(got, want, ("sl", "sp"))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("on_diagonal", [False, True])
@pytest.mark.parametrize("sigmas", SIGMA_LISTS)
def test_gap_width_sweep_matches_reference(monkeypatch, sigmas, on_diagonal,
                                           workers):
    params = haldane.HaldaneParams(phi=-np.pi / 2, M=0.0)
    got, want = both_sweeps(monkeypatch, haldane,
                             haldane.noise_sweep_gap_width, params, sigmas, 3,
                             seed=13, grid=4, workers=workers,
                             noise_on_diagonal=on_diagonal)
    assert_same_points(got, want, ("gap", "width"))


def test_n33_column_matches_reference(monkeypatch):
    # N = 33: the generic-route size that the benchmark sweeps
    got, want = both_sweeps(monkeypatch, poincare,
                             symmetry_points, 33, 2,
                             [0.0, 1e-3, 5e-2], 2, seed=5)
    assert_same_points(got, want, ("sl", "sp"))


@pytest.mark.parametrize("sigmas", [[0.0], [1e-3], [0.0, 1e-3], []])
def test_zero_realizations_rejected(sigmas):
    with pytest.raises(ValueError, match="n must be >= 1"):
        engine._noise_sweep(lambda column: [], ("x",), sigmas, 0, seed=1,
                            workers=1)


def test_empty_sigma_list_runs_no_task():
    def measure(column):
        raise AssertionError(f"measured {column}")

    assert engine._noise_sweep(measure, ("x",), [], 3, seed=1, workers=2) == []
