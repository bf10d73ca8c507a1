"""Flat Chern bands on the honeycomb lattice: the two-band benchmark.

The Bloch Hamiltonian is H(k) = d(k) . sigma with the honeycomb d-vector

    d1 = t1 [1 + cos(k.g2) + cos(k.g3)]
    d2 = t1 [sin(k.g2) - sin(k.g3)]
    d3 = M - 2 t2 sin(phi) [sin(k.g1) + sin(k.g2) + sin(k.g3)]

where g1 = e2 - e3, g2 = e3 - e1, g3 = e1 - e2 are built from the three unit
vectors pointing from a B site to its neighboring A sites.  Rescaling d(k)
to a constant norm makes both bands exactly flat while keeping the band
topology, which survives because only the direction of d matters.

The Brillouin zone is sampled on an N x N grid uniform in the two reciprocal
directions conjugate to (g2, g3); grid axes are ordered (row, col) with the
row index slow, so real-space coordinates are X = column, Y = row.

Topology is read two ways: the sign formula
C = -[sgn(M + 3 sqrt(3) t2 sin phi) - sgn(M - 3 sqrt(3) t2 sin phi)] / 2 and
the real-space Bott index of the engineered evolution, which stays
quantized under gate noise.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import circuit
from .engine import NoiseModel, _map_ordered, _noise_sweep
from .protocol import (MomentumModel, PhaseWrapError, _arctan2_phases,
                       _checked_unitary, build_protocol_unitary, extract_spectrum)

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# B -> A bond unit vectors and the second-neighbor vectors built from them
E1 = np.array([0.0, 1.0])
E2 = np.array([-np.sqrt(3) / 2, -0.5])
E3 = np.array([np.sqrt(3) / 2, -0.5])
G1 = E2 - E3
G2 = E3 - E1
G3 = E1 - E2

# reciprocal basis of the (G2, G3) lattice: B_ROW . G2 = 2 pi, B_ROW . G3 = 0
_B = 2.0 * np.pi * np.linalg.inv(np.array([G2, G3]))
B_ROW, B_COL = _B[:, 0], _B[:, 1]


class SingularPointError(ValueError):
    """The d-vector vanishes (gap closing); flattening is undefined."""


class PhaseBoundaryError(ValueError):
    """Parameters sit on a topological phase boundary."""


class GapClosedError(ValueError):
    """No spectral gap at the requested filling."""


#: smallest headroom pi - T max|E|, in rad, that `noise_sweep_gap_width`
#: and `phase_diagram` pass without a warning: closer to the branch cut,
#: energies may have wrapped mod 2 pi / T
HEADROOM_MARGIN = 0.1

# how `phase_diagram` counts a realization whose Bott index it cannot take;
# a model that cannot be flattened has a closed gap at a grid point
_FAILED = {GapClosedError: "gap closed", SingularPointError: "gap closed",
           PhaseWrapError: "phase wrapped"}


#: the hopping amplitudes t1 and t2 of the d-vector: t2 / t1 = 1 / sqrt(3)
T1 = 1.0
T2 = 1.0 / np.sqrt(3)

#: norm of the flattened d-vector, rad/ms: a 2 pi x 1 kHz band norm
TARGET_NORM = 2.0 * np.pi


@dataclass(frozen=True)
class HaldaneParams:
    """Model parameters: the Haldane flux phi and the sublattice offset M."""

    phi: float
    M: float

    def __post_init__(self):
        if not np.isfinite([self.phi, self.M]).all():
            raise ValueError(f"parameters must be finite: {self}")


def d_vector(k, p: HaldaneParams):
    """The coefficient vector (d1, d2, d3) at cartesian momentum k, or one
    column of coefficients per row of a stack of momenta k."""
    k = np.asarray(k, dtype=float)
    kg1, kg2, kg3 = k @ G1, k @ G2, k @ G3
    d1 = T1 * (1.0 + np.cos(kg2) + np.cos(kg3))
    d2 = T1 * (np.sin(kg2) - np.sin(kg3))
    d3 = p.M - 2.0 * T2 * np.sin(p.phi) * (np.sin(kg1) + np.sin(kg2) + np.sin(kg3))
    return np.array([d1, d2, d3])


def flatten(d):
    """Rescale d, or each column of d, to the norm `TARGET_NORM`; singular
    at gap closings.  ValueError for a d whose norm overflows (from about
    1.3e154, the square root of the largest float, as for |M| that large)."""
    d = np.asarray(d, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(d, axis=0)
    if not np.isfinite(norm).all():
        raise ValueError("d is too large to flatten: its norm overflows")
    if np.min(norm) < 1e-12:
        raise SingularPointError("d vanishes; the point sits on a phase boundary")
    return d * (TARGET_NORM / norm)


def bloch_matrix(d) -> np.ndarray:
    """d . sigma, or one such block per column of d, stacked."""
    return np.einsum("i...,iab->...ab", d, PAULI)


def bz_grid(N: int) -> np.ndarray:
    """Cartesian momenta k[row, col] with k.g2 = 2 pi row / N, k.g3 = 2 pi col / N."""
    a, b = np.arange(N)[:, None, None], np.arange(N)[None, :, None]
    return (a * B_ROW + b * B_COL) / N


def momentum_model(p: HaldaneParams, grid: int = 16) -> MomentumModel:
    """Flattened two-band model on an N x N Brillouin-zone grid, block
    [a N + b] at the momentum bz_grid(N)[a, b]; builds nothing of grid size
    until its eigensystem is asked for, and then every block in one
    vectorized pass."""
    return MomentumModel(d=2, l=2, grid=grid, hamiltonian=lambda: bloch_matrix(
        flatten(d_vector(bz_grid(grid), p))).reshape(-1, 2, 2))


def chern_analytic(p: HaldaneParams) -> int:
    """Sign-formula Chern number of the lower band in the clean limit."""
    a = 3.0 * np.sqrt(3) * T2 * np.sin(p.phi)
    lo, hi = p.M + a, p.M - a
    if abs(lo) < 1e-12 or abs(hi) < 1e-12:
        raise PhaseBoundaryError(
            f"(phi={p.phi}, M={p.M}) sits on a phase boundary"
        )
    return int(-0.5 * (np.sign(lo) - np.sign(hi)))


def bott_index(U: np.ndarray, T: float, l: int) -> tuple:
    """(B, pi - max|theta|): the real-space topological invariant of the
    lower-band projector, and the distance of U's eigenphases theta to the
    branch cut.

    B = Im tr log(Vy Vx Vy^dag Vx^dag) / (2 pi) with Vx, Vy the
    position-phase operators exp(2 pi i X / N), exp(2 pi i Y / N) compressed
    to the occupied subspace (X = column coordinate, Y = row coordinate of
    the square embedding).  The occupied subspace is spanned by the
    eigenvectors of the lower half of the energies -theta / T, the top half
    of theta: not theta > 0, since noise moves the phases off centre.
    Eigenphases and eigenvectors come from the arctan2 route of `protocol`
    (one eigh of the Hermitian part of U, certified by residuals), after the
    probe check of `extract_spectrum`.  B is the real value before
    rounding.  Raises GapClosedError when the spectrum has no gap (below
    1e-8) at half filling, PhaseWrapError, like `extract_spectrum`, when an
    eigenphase sits within `protocol.WRAP_MARGIN` of the branch cut, and
    ValueError when U is not unitary.
    """
    dim = U.shape[0]
    N = round(np.sqrt(dim / l))
    if N * N * l != dim:
        raise ValueError(f"dimension {dim} is not an N x N x {l} layout")
    n_occ = dim // 2
    theta, Z = _arctan2_phases(_checked_unitary(U))
    energies = -theta / T
    order = np.argsort(energies, kind="stable")
    gap = energies[order[n_occ]] - energies[order[n_occ - 1]]
    if gap < 1e-8:
        raise GapClosedError(f"no spectral gap at filling {n_occ}: gap={gap:g}")
    occ = Z[:, order[:n_occ]]
    cell = np.arange(dim) // l
    px = np.exp(2j * np.pi * (cell % N) / N)    # column: X
    py = np.exp(2j * np.pi * (cell // N) / N)   # row: Y
    Vx = occ.conj().T @ (px[:, None] * occ)
    Vy = occ.conj().T @ (py[:, None] * occ)
    loop = Vy @ Vx @ Vy.conj().T @ Vx.conj().T
    eig = np.linalg.eigvals(loop)
    if np.abs(eig).min() < 1e-8:
        raise GapClosedError("projected position operators are near-singular")
    return (float(np.angle(eig).sum() / (2.0 * np.pi)),
            float(np.pi - np.abs(theta).max()))


def _warn_headroom(sweep: str, headroom: float, where: str) -> None:
    """One stderr line for the point `where` of `sweep` when `headroom`, its
    eigenphases' smallest distance to the branch cut, is below
    `HEADROOM_MARGIN`."""
    if headroom < HEADROOM_MARGIN:
        print(f"{sweep}: eigenphases within {headroom:.3g} rad of the branch "
              f"cut at {where} (margin {HEADROOM_MARGIN:g} rad); energies may "
              "have wrapped", file=sys.stderr)


def noise_sweep_gap_width(p: HaldaneParams, noise: NoiseModel,
                          n_realizations: int, grid: int = 16,
                          workers: int = 1) -> list:
    """Band gap and width versus noise strength: one `engine.SweepPoint` per
    sigma of the column `noise` (see `engine._noise_sweep`) with samples
    "gap", "width" and "headroom" (pi - T max|E|, the eigenphases' distance
    to the branch cut), independent of the worker count.  Each sigma whose
    smallest headroom falls below `HEADROOM_MARGIN` gets one line on
    stderr."""
    n_realizations = circuit._integer(n_realizations, "n_realizations", 1)
    model = momentum_model(p, grid)

    def measure(block):  # one row per member
        # map, not a loop variable, so that each evolution goes before the
        # next is built
        specs = map(lambda U: extract_spectrum(U, model.T, model.l),
                    build_protocol_unitary(model, block))
        return [(spec.band_gap, spec.band_width,
                 np.pi - model.T * np.abs(spec.energies).max()) for spec in specs]

    points = _noise_sweep(measure, ("gap", "width", "headroom"), noise,
                          n_realizations, workers)[0]
    for point in points:
        _warn_headroom("gap sweep", point.samples["headroom"].min(),
                       f"sigma={point.sigma:g}")
    return points


def phase_diagram(phis: Sequence[float], ms: Sequence[float], noise: NoiseModel,
                  grid: int = 16, realizations: int = 1, workers: int = 1) -> list:
    """(phi, M, mean Bott, analytic Chern) over a parameter grid.

    The Chern entry is None on phase boundaries.  Bott values are averaged
    over `realizations` noisy runs of the one-sigma model `noise`, which
    must start on stream 0: realization r of cell i draws from
    `replace(noise, stream_id=r).substream(i)`, and a cell's realizations
    compose as one block.  A realization whose gap
    closed (or whose model cannot be flattened, SingularPointError, since
    the grid holds a point where d vanishes), or whose eigenphases reached
    the branch cut (PhaseWrapError),
    counts as NaN in its cell's mean; each cell with such realizations gets
    one line on stderr that counts both kinds.  Each cell whose smallest
    headroom pi - max|theta| over the realizations with a Bott index falls
    below `HEADROOM_MARGIN` gets one more line.
    """
    realizations = circuit._integer(realizations, "realizations", 1)
    if np.ndim(noise.sigma) or noise.stream_id != 0:
        raise ValueError(f"a phase diagram takes one sigma on stream 0, got {noise}")
    cells = [HaldaneParams(phi=phi, M=m) for phi in phis for m in ms]
    # built here, not in the workers: building a model loads SciPy, whose
    # OpenBLAS the sweep pins before it forks
    models = [momentum_model(p, grid) for p in cells]

    def one(index):
        p, model = cells[index], models[index]
        try:
            chern = chern_analytic(p)
        except PhaseBoundaryError:
            chern = None
        evolutions = build_protocol_unitary(model, [
            replace(noise, stream_id=r).substream(index) for r in range(realizations)])
        vals, failed = [], dict.fromkeys(_FAILED.values(), 0)
        headroom = np.pi
        for _ in range(realizations):  # the map goes on past a member that raised
            try:
                bott, room = bott_index(next(evolutions), model.T, model.l)
            except tuple(_FAILED) as err:
                vals.append(float("nan"))
                failed[_FAILED[type(err)]] += 1
            else:
                vals.append(bott)
                headroom = min(headroom, room)
        return p.phi, p.M, float(np.mean(vals)), chern, failed, headroom

    rows = _map_ordered(one, len(cells), workers)
    for phi, m, _, _, failed, headroom in rows:
        counts = " and ".join(f"{why} in {k}" for why, k in failed.items() if k)
        if counts:
            print(f"phase diagram: {counts} of {realizations} "
                  f"realizations at phi={phi:g}, M={m:g}", file=sys.stderr)
        _warn_headroom("phase diagram", headroom, f"phi={phi:g}, M={m:g}")
    return [row[:4] for row in rows]
