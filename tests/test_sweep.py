"""`engine._noise_sweep` against its reference: one column of every sigma
per realization, each measured alone.  Measuring the zero sigmas once,
measuring realizations in blocks, and handing realization 0's rows back to
the caller must not change a bit."""

from dataclasses import replace

import numpy as np
import pytest

from qqft import engine, haldane, poincare
from qqft.engine import NoiseModel, SweepPoint


def sweep_reference(measure, names, noise, n, workers):
    """(points, rows0) of the sweep that measured realization r alone, as a
    block of one full column replace(noise, stream_id=r), zero sigmas
    included; rows0 are measure's rows of realization 0, measured here
    afresh like every other realization."""
    sigmas = noise.sigma

    def column(r):  # a block of one column: one row per sigma
        return measure([replace(noise, stream_id=r)])

    columns = engine._map_ordered(column, n, workers) if sigmas else []
    points = [SweepPoint(sigma=sigma, samples=dict(zip(
                  names, map(np.array, zip(*(rows[k] for rows in columns))))))
              for k, sigma in enumerate(sigmas)]
    return points, columns[0] if columns else []


def symmetry_sweep(N, gamma, *args, **kwargs):
    """`noise_sweep_symmetry` for the (N, gamma) crystal: (points, greens)."""
    return poincare.noise_sweep_symmetry(poincare.build_dispersion(N, gamma),
                                         poincare.equivalence_classes(N, gamma),
                                         *args, **kwargs)


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


def assert_same_greens(got, want):
    assert list(got) == list(want)
    for sigma in want:
        assert got[sigma].tobytes() == want[sigma].tobytes()


# 1 is one block of one; 4 one full block; 5 and 9 end in a block of one
REALIZATIONS = [1, 4, 5, 9]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", REALIZATIONS)
@pytest.mark.parametrize("on_diagonal", [False, True])
@pytest.mark.parametrize("sigmas", SIGMA_LISTS)
def test_symmetry_sweep_matches_reference(monkeypatch, sigmas, on_diagonal,
                                          n, workers):
    noise = NoiseModel(sigmas, 13, diagonal=on_diagonal)
    got, want = both_sweeps(monkeypatch, poincare,
                             symmetry_sweep, 6, 2, noise, n, workers=workers)
    assert_same_points(got[0], want[0], ("sl", "sp"))
    assert_same_greens(got[1], want[1])


# the flat band's eigensolve dominates: every n and every worker count
# once, not their product, which would take 18 s
@pytest.mark.parametrize("n, workers", [(1, 3), (4, 1), (5, 2), (9, 3)])
@pytest.mark.parametrize("on_diagonal", [False, True])
@pytest.mark.parametrize("sigmas", SIGMA_LISTS)
def test_gap_width_sweep_matches_reference(monkeypatch, sigmas, on_diagonal,
                                           n, workers):
    params = haldane.HaldaneParams(phi=-np.pi / 2, M=0.0)
    noise = NoiseModel(sigmas, 13, diagonal=on_diagonal)
    got, want = both_sweeps(monkeypatch, haldane,
                             haldane.noise_sweep_gap_width, params, noise, n,
                             grid=4, workers=workers)
    assert_same_points(got, want, ("gap", "width", "headroom"))


def test_n33_column_matches_reference(monkeypatch):
    # N = 33: the generic-route size that the benchmark sweeps
    got, want = both_sweeps(monkeypatch, poincare,
                             symmetry_sweep, 33, 2,
                             NoiseModel((0.0, 1e-3, 5e-2), 5), 2)
    assert_same_points(got[0], want[0], ("sl", "sp"))
    assert_same_greens(got[1], want[1])


def draws(block):
    """One row per member of the block: the sum of its draws, and the draws."""
    return [(float(x.sum()), x) for column in block
            for x in column.delta(np.arange(5))]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n", REALIZATIONS)
@pytest.mark.parametrize("sigmas", SIGMA_LISTS + [[]])
def test_rows_of_realization_0_match_reference(sigmas, n, workers):
    # values past `names` reach only the returned rows of realization 0
    noise = NoiseModel(sigmas, 21)
    got = engine._noise_sweep(draws, ("sum",), noise, n, workers=workers)
    want = sweep_reference(draws, ("sum",), noise, n, workers=workers)
    assert_same_points(got[0], want[0], ("sum",))
    assert [p.samples.keys() for p in got[0]] == [{"sum"}] * len(sigmas)
    assert len(got[1]) == len(want[1]) == len(sigmas)
    for a, b in zip(got[1], want[1]):
        assert np.float64(a[0]).tobytes() == np.float64(b[0]).tobytes()
        assert a[1].tobytes() == b[1].tobytes()


@pytest.mark.parametrize("n", REALIZATIONS)
def test_blocks_of_consecutive_realizations(n):
    # fixed blocks of engine._BLOCK realizations: realization 0 at every
    # sigma, then the nonzero sigmas on stream r
    blocks = []
    engine._noise_sweep(lambda block: blocks.append(block) or draws(block),
                        ("sum",), NoiseModel((1e-3, 0.0, 2e-2), 4), n,
                        workers=1)
    columns = [NoiseModel((1e-3, 0.0, 2e-2), 4)] + [
        NoiseModel((1e-3, 2e-2), 4, stream_id=r) for r in range(1, n)]
    assert blocks == [columns[i:i + engine._BLOCK]
                      for i in range(0, n, engine._BLOCK)]


@pytest.mark.parametrize("sigmas", [[0.0], [1e-3], [0.0, 1e-3], []])
def test_zero_realizations_rejected(sigmas):
    with pytest.raises(ValueError, match="n must be >= 1"):
        engine._noise_sweep(lambda block: [], ("x",), NoiseModel(sigmas, 1),
                            0, workers=1)


def test_empty_sigma_list_runs_no_task():
    def measure(block):
        raise AssertionError(f"measured {block}")

    assert engine._noise_sweep(measure, ("x",), NoiseModel([], 1), 3,
                               workers=2) == ([], [])


@pytest.mark.parametrize("noise", [
    NoiseModel(0.0, 1),                       # one sigma, not a column
    NoiseModel(1e-3, 1),
    NoiseModel((0.0, 1e-3), 1, stream_id=2),  # stream 2 is realization 2's
    NoiseModel((), 1, stream_id=1),
], ids=["scalar-zero", "scalar", "stream-2", "empty-stream-1"])
def test_scalar_sigma_or_nonzero_stream_rejected(noise):
    def measure(block):
        raise AssertionError(f"measured {block}")

    with pytest.raises(ValueError, match="column of sigmas on stream 0"):
        engine._noise_sweep(measure, ("x",), noise, 3, workers=1)
