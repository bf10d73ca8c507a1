"""Flat Chern bands on the honeycomb lattice: the two-band benchmark.

The Bloch Hamiltonian is H(k) = d0 sigma_0 + d(k) . sigma with the honeycomb
d-vector

    d1 = t1 [1 + cos(k.g2) + cos(k.g3)]
    d2 = t1 [sin(k.g2) - sin(k.g3)]
    d3 = M - 2 t2 sin(phi) [sin(k.g1) + sin(k.g2) + sin(k.g3)]

where g1 = e2 - e3, g2 = e3 - e1, g3 = e1 - e2 are built from the three unit
vectors pointing from a B site to its neighboring A sites, and d0 = 0.
Rescaling d(k) to a constant norm makes both bands exactly flat while keeping
the band topology, which survives because only the direction of d matters.

The Brillouin zone is sampled on an N x N grid uniform in the two reciprocal
directions conjugate to (g2, g3); grid axes are ordered (row, col) with the
row index slow, so real-space coordinates are X = column, Y = row.

Topology is checked along two independent routes: the sign formula
C = -[sgn(M + 3 sqrt(3) t2 sin phi) - sgn(M - 3 sqrt(3) t2 sin phi)] / 2 and
a lattice field-strength (plaquette Berry flux) integration, plus the
real-space Bott index of the engineered evolution, which stays quantized
under gate noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import NoiseModel, _map_ordered, _noise_sweep
from .protocol import (T_DEFAULT, MomentumModel, _cayley_phases,
                       build_protocol_unitary, extract_spectrum)

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


@dataclass(frozen=True)
class HaldaneParams:
    """Model parameters; t2/t1 defaults to 1/sqrt(3), target_norm to
    2 pi rad/ms (a 2 pi x 1 kHz band norm)."""

    phi: float
    M: float
    t1: float = 1.0
    t2: float = 1.0 / np.sqrt(3)
    target_norm: float = 2.0 * np.pi

    def __post_init__(self):
        if self.t1 <= 0:
            raise ValueError("t1 must be positive")


def d_vector(k, p: HaldaneParams):
    """The coefficient vector (d1, d2, d3) and d0 at cartesian momentum k."""
    k = np.asarray(k, dtype=float)
    kg1, kg2, kg3 = k @ G1, k @ G2, k @ G3
    d1 = p.t1 * (1.0 + np.cos(kg2) + np.cos(kg3))
    d2 = p.t1 * (np.sin(kg2) - np.sin(kg3))
    d3 = p.M - 2.0 * p.t2 * np.sin(p.phi) * (np.sin(kg1) + np.sin(kg2) + np.sin(kg3))
    return np.array([d1, d2, d3]), 0.0


def flatten(d, target_norm: float):
    """Rescale d to the requested norm; singular at gap closings."""
    d = np.asarray(d, dtype=float)
    norm = np.linalg.norm(d)
    if norm < 1e-12:
        raise SingularPointError("d vanishes; the point sits on a phase boundary")
    return d * (target_norm / norm)


def bloch_matrix(d, d0: float = 0.0) -> np.ndarray:
    return d0 * np.eye(2, dtype=complex) + sum(di * s for di, s in zip(d, PAULI))


def bz_grid(N: int) -> np.ndarray:
    """Cartesian momenta k[row, col] with k.g2 = 2 pi row / N, k.g3 = 2 pi col / N."""
    grid = np.zeros((N, N, 2))
    for a in range(N):
        for b in range(N):
            grid[a, b] = (a * B_ROW + b * B_COL) / N
    return grid


def momentum_model(p: HaldaneParams, grid: int = 16, T: float = T_DEFAULT,
                   d0_shift: float = 0.0) -> MomentumModel:
    """Flattened two-band model on an N x N Brillouin-zone grid."""
    ks = bz_grid(grid)

    def sampler(a, b):
        d, d0 = d_vector(ks[a, b], p)
        return bloch_matrix(flatten(d, p.target_norm), d0 + d0_shift)

    return MomentumModel(d=2, l=2, grid=grid, sampler=sampler, T=T)


def chern_analytic(p: HaldaneParams) -> int:
    """Sign-formula Chern number of the lower band in the clean limit."""
    a = 3.0 * np.sqrt(3) * p.t2 * np.sin(p.phi)
    lo, hi = p.M + a, p.M - a
    if abs(lo) < 1e-12 or abs(hi) < 1e-12:
        raise PhaseBoundaryError(
            f"(phi={p.phi}, M={p.M}) sits on a phase boundary"
        )
    return int(-0.5 * (np.sign(lo) - np.sign(hi)))


def chern_fhs(model: MomentumModel) -> int:
    """Lattice field-strength Chern number of the lower band.

    Plaquette products of normalized link overlaps of the lower-band
    eigenvectors; the total flux is quantized for a gapped sampler and is
    independent of the formula behind `chern_analytic`.
    """
    N = model.grid
    vecs = np.zeros((N, N, model.l), dtype=complex)
    for a in range(N):
        for b in range(N):
            H = np.asarray(model.sampler(a, b), dtype=complex)
            _, Q = np.linalg.eigh(H)
            vecs[a, b] = Q[:, 0]
    total = 0.0
    for a in range(N):
        for b in range(N):
            u1 = vecs[a, b]
            u2 = vecs[(a + 1) % N, b]
            u3 = vecs[(a + 1) % N, (b + 1) % N]
            u4 = vecs[a, (b + 1) % N]
            plaq = (np.vdot(u1, u2) * np.vdot(u2, u3)
                    * np.vdot(u3, u4) * np.vdot(u4, u1))
            if abs(plaq) < 1e-12:
                raise GapClosedError(f"singular plaquette at ({a}, {b})")
            total += np.angle(plaq)
    c = total / (2.0 * np.pi)
    if abs(c - round(c)) > 0.1:
        raise GapClosedError(f"non-integer lattice Chern number {c}")
    return int(round(c))


def bott_index(U: np.ndarray, T: float, l: int) -> float:
    """Real-space topological invariant of the lower-band projector.

    B = Im tr log(Vy Vx Vy^dag Vx^dag) / (2 pi) with Vx, Vy the
    position-phase operators exp(2 pi i X / N), exp(2 pi i Y / N) compressed
    to the occupied subspace (X = column coordinate, Y = row coordinate of
    the square embedding), the occupied subspace being the lower half of the
    spectrum.  Returns the real value before rounding; refuses when the
    spectrum has no gap (below 1e-8) at half filling, and raises
    PhaseWrapError, like `extract_spectrum`, when an eigenphase sits within
    `protocol.WRAP_MARGIN` of the branch cut.
    """
    dim = U.shape[0]
    N = round(np.sqrt(dim / l))
    if N * N * l != dim:
        raise ValueError(f"dimension {dim} is not an N x N x {l} layout")
    n_occ = dim // 2
    theta, Z = _cayley_phases(U, vectors=True)
    energies = -theta / T
    order = np.argsort(energies, kind="stable")
    gap = energies[order[n_occ]] - energies[order[n_occ - 1]]
    if gap < 1e-8:
        raise GapClosedError(f"no spectral gap at filling {n_occ}: gap={gap:g}")
    occ = Z[:, order[:n_occ]]
    cell = np.arange(dim) // l
    col = cell % N
    row = cell // N
    px = np.exp(2j * np.pi * col / N)
    py = np.exp(2j * np.pi * row / N)
    Vx = occ.conj().T @ (px[:, None] * occ)
    Vy = occ.conj().T @ (py[:, None] * occ)
    loop = Vy @ Vx @ Vy.conj().T @ Vx.conj().T
    eig = np.linalg.eigvals(loop)
    if np.abs(eig).min() < 1e-8:
        raise GapClosedError("projected position operators are near-singular")
    return float(np.angle(eig).sum() / (2.0 * np.pi))


def noise_sweep_gap_width(p: HaldaneParams, sigmas: Sequence[float],
                          n_realizations: int, seed: int, grid: int = 16,
                          workers: int = 1,
                          noise_on_diagonal: bool = False) -> list:
    """Band gap and width versus noise strength: one `engine.SweepPoint` per
    sigma with samples "gap" and "width", independent of the worker count."""
    model = momentum_model(p, grid)

    def measure(noise):
        U = build_protocol_unitary(model, noise, noise_on_diagonal)
        spec = extract_spectrum(U, model.T, model.l)
        return spec.band_gap, spec.band_width

    return _noise_sweep(measure, ("gap", "width"), sigmas, n_realizations,
                        seed, workers)


def phase_diagram(phis: Sequence[float], ms: Sequence[float], sigma: float,
                  seed: int, grid: int = 16, realizations: int = 1,
                  workers: int = 1) -> list:
    """(phi, M, mean Bott, analytic Chern) over a parameter grid.

    The Chern entry is None on phase boundaries.  Bott values are averaged
    over `realizations` noisy runs with per-cell substreams.
    """
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    cells = [(phi, m) for phi in phis for m in ms]

    def one(index):
        phi, m = cells[index]
        p = HaldaneParams(phi=phi, M=m)
        try:
            chern = chern_analytic(p)
        except PhaseBoundaryError:
            chern = None
        model = momentum_model(p, grid)
        vals = []
        for r in range(realizations):
            noise = NoiseModel(sigma, seed, stream_id=r).substream(index)
            U = build_protocol_unitary(model, noise)
            try:
                vals.append(bott_index(U, model.T, model.l))
            except GapClosedError:
                vals.append(float("nan"))
        return phi, m, float(np.mean(vals)), chern

    return _map_ordered(one, len(cells), workers)
