"""Assemble the engineered evolution U = V exp(-i H_D T) V^dag.

V is the compiled Fourier transform applied along every spatial dimension
(identity on the orbital factor), and H_D is the block-diagonal momentum
Hamiltonian programmed site by site.  Eigenphases of U give the band
energies; with the default evolution time T = 1/(2 pi) ms and band norms of
2 pi rad/ms (i.e. 2 pi x 1 kHz) all phases stay safely inside the principal
branch.

Assembly never forms a dim x dim Kronecker product.  The noisy evolution is
U = V_f U_d V_i with V_f = F_1 (x) ... (x) F_d (x) I_l and V_i likewise from
the inverted sequences (grid x grid factors).  U_d is block diagonal, so the
product U_d V_i is built entry by entry in O(dim^2), and V_f is applied one
factor at a time on a reshaped array.  U is similar to the core
C = U_d (V_i V_f) = V_f^-1 U V_f, whose Fourier part is the product of
per-dimension grid x grid factors (the identity without noise).  Spectra
are taken from U itself: applying V_f costs a few ms of a 512-dim
realization whose eigensolve takes about a hundred.

Eigenphases come from the Cayley map: for unitary U without eigenvalue -1,
K = i (I + U)^-1 (I - U) is Hermitian with eigenvalues tan(theta / 2), so
theta = 2 arctan(eigvalsh(K)) and eigh(K) gives an orthonormal eigenbasis
even for the degenerate flat bands.  The map is one-to-one on theta in
(-pi, pi) and blows up at the branch cut theta = +-pi, where I + U is
singular; eigenphases within `WRAP_MARGIN` of the cut raise PhaseWrapError,
since energies there are ambiguous mod 2 pi / T.

Energies are in angular frequency units of rad/ms throughout (2 pi rad/ms
corresponds to 2 pi x 1 kHz); times are in ms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from . import circuit, engine

#: default evolution time, ms
T_DEFAULT = 1.0 / (2.0 * np.pi)

#: eigenphases closer than this to the branch cut +-pi raise PhaseWrapError
WRAP_MARGIN = 1e-6

#: recoil energy of the reference lithium setup, angular frequency in rad/ms
RECOIL_RAD_PER_MS = 2.0 * np.pi * 25.12


class PhaseWrapError(ValueError):
    """Eigenphases reached the branch cut; the evolution time is too long."""


@dataclass(frozen=True)
class MomentumModel:
    """Sampler of the momentum-space Hamiltonian on a uniform grid.

    sampler(m_1, ..., m_d) must return the l x l Hermitian block at grid
    point m; the composite state index is row-major in the grid coordinates
    with the orbital index fastest.
    """

    d: int
    l: int
    grid: int
    sampler: Callable[..., np.ndarray]
    T: float = T_DEFAULT

    def __post_init__(self):
        if self.grid < 2:
            raise ValueError("grid must be >= 2")

    @property
    def dim(self) -> int:
        return self.grid ** self.d * self.l

    @property
    def eigensystem(self):
        """(w, Q): eigenvalues, shape (grid**d, l), and eigenvectors, shape
        (grid**d, l, l), of the sampler blocks, row-major in the grid
        coordinates.

        Computed on first use and kept (the model is frozen, so the cache
        cannot go stale): the sampler runs once per model.  The cache is a
        plain instance attribute, not a `functools.cached_property`, which
        on Python < 3.12 serializes first calls on different models behind
        one class-wide lock; two threads racing on the same model only
        repeat deterministic work.  Rejects blocks of the wrong shape or
        that are not Hermitian.
        """
        cached = self.__dict__.get("_eigensystem")
        if cached is not None:
            return cached
        npts, l = self.grid ** self.d, self.l
        H = np.empty((npts, l, l), dtype=complex)
        for idx in range(npts):
            coords = np.unravel_index(idx, (self.grid,) * self.d)
            block = np.asarray(self.sampler(*coords), dtype=complex)
            if block.shape != (l, l):
                raise ValueError(f"sampler block at {coords} has shape {block.shape}")
            if np.abs(block - block.conj().T).max() > 1e-10 * max(1.0, np.abs(block).max()):
                raise ValueError(f"sampler block at {coords} is not Hermitian")
            H[idx] = block
        cached = np.linalg.eigh(H)
        object.__setattr__(self, "_eigensystem", cached)
        return cached


@dataclass
class SpectrumResult:
    """Band energies extracted from the eigenphases of an evolution.

    `energies` is sorted ascending and split into `n_bands` equal chunks by
    global energy ordering (under noise there is no better quantum number);
    gap and width are recomputed from the stored energies on access.
    """

    energies: np.ndarray
    n_bands: int
    T: float

    def band(self, index: int) -> np.ndarray:
        per = len(self.energies) // self.n_bands
        return self.energies[index * per: (index + 1) * per]

    @property
    def band_gap(self) -> float:
        if self.n_bands < 2:
            raise ValueError("band gap needs at least two bands")
        return float(self.band(1).min() - self.band(0).max())

    @property
    def band_width(self) -> float:
        return float(self.band(0).max() - self.band(0).min())


def _apply_kron(factors, X: np.ndarray) -> np.ndarray:
    """(F_0 (x) ... (x) F_{d-1} (x) I) X without forming the Kronecker product.

    Rows of X are composite indices, row-major with the factor-0 coordinate
    slowest; the identity acts on whatever row index is left (the orbital).
    """
    rows, lead = X.shape[0], 1
    for F in factors:
        X = np.matmul(F, X.reshape(lead, F.shape[0], -1))
        lead *= F.shape[0]
    return X.reshape(rows, -1)


def build_protocol_unitary(model: MomentumModel, noise: engine.NoiseModel = None,
                           noise_on_diagonal: bool = False) -> np.ndarray:
    """Compose (noisy) per-dimension Fourier sequences around the diagonal step.

    Every compiled sequence (one forward and one inverse per dimension) draws
    from its own noise substream.  With sigma = 0 the result equals
    V Omega_D V^dag exactly.  Noise on the diagonal step is off by default
    and, when enabled, scales the whole diagonal generator by one draw.
    """
    if model.d not in (1, 2):
        raise ValueError(f"unsupported dimension d={model.d}")
    if model.dim > engine.MAX_DIM:
        raise ValueError(f"evolution dimension {model.dim} exceeds {engine.MAX_DIM}")
    forward, inverse = zip(*(engine.fourier_pair(model.grid, noise, k)
                             for k in range(model.d)))
    inverse = functools.reduce(np.kron, inverse)
    scale = engine.diagonal_scale(noise, noise_on_diagonal)
    blocks = engine.diagonal_momentum_blocks(model, scale=scale)
    # U_d V_i: entry ((p, a), (q, b)) is blocks[p, a, b] * inverse[p, q]
    ud_vi = np.einsum("pab,pq->paqb", blocks, inverse)
    return _apply_kron(forward, ud_vi.reshape(model.dim, model.dim))


def _cayley_phases(U: np.ndarray, vectors: bool = False):
    """Eigenphases theta (ascending) of a unitary U = Z diag(exp(i theta)) Z^dag.

    Solves (I + U) K = i (I - U) by one LU factorization; K is Hermitian with
    eigenvalues tan(theta / 2), so `eigvalsh`/`eigh` replace a general
    eigensolver.  Returns (theta, Z) with Z None unless `vectors`.  Raises
    PhaseWrapError when I + U is singular or not finite, or when any
    |theta| >= pi - WRAP_MARGIN; ValueError when U is not unitary.
    """
    n = U.shape[0]
    diag = np.diag_indices(n)
    A = np.array(U, dtype=complex, order="F")   # becomes I + U, then its LU
    K = -A                                      # becomes I - U, then K
    K[diag] += 1.0
    A[diag] += 1.0
    _, _, K, info = scipy.linalg.lapack.zgesv(A, K, overwrite_a=True,
                                              overwrite_b=True)
    del A  # release the LU before the eigensolver allocates its workspace
    if info != 0 or not np.isfinite(K).all():
        raise PhaseWrapError(
            "I + U is singular: eigenphase at the branch cut; choose a "
            "shorter evolution time")
    K *= 1j
    # K's error grows like (1 + |K|^2) times U's unitarity defect
    if np.abs(K - K.conj().T).max() > 1e-10 * (1.0 + np.linalg.norm(K)) ** 2:
        raise ValueError("matrix is not unitary")
    if vectors:
        t, Z = scipy.linalg.eigh(K, overwrite_a=True, check_finite=False)
    else:
        t, Z = scipy.linalg.eigvalsh(K, overwrite_a=True, check_finite=False), None
    theta = 2.0 * np.arctan(t)
    if np.any(np.abs(theta) >= np.pi - WRAP_MARGIN):
        raise PhaseWrapError(
            "eigenphase at the branch cut; choose a shorter evolution time"
        )
    return theta, Z


def extract_spectrum(U: np.ndarray, T: float, l: int) -> SpectrumResult:
    """Energies E = -theta/T from the eigenphases theta of a unitary U.

    Raises PhaseWrapError when any eigenphase sits within `WRAP_MARGIN` of
    the branch cut, since energies would then be ambiguous mod 2 pi / T,
    and ValueError when U is not unitary.
    """
    theta, _ = _cayley_phases(U)
    return SpectrumResult(energies=np.sort(-theta / T), n_bands=l, T=T)


def gate_time(j_over_recoil: float) -> float:
    """Single-step duration pi / (2 J) in ms for tunneling J = x * E_R."""
    return math.pi / (2.0 * j_over_recoil * RECOIL_RAD_PER_MS)


def estimate_runtime(n: int, j_over_recoil: float = 0.01) -> float:
    """Wall-clock estimate (ms) of one radix-2 Fourier cycle on N = 2**n sites.

    Calibration, not physics: depth x pi/(2J) reproduces the ~100 ms scale of
    the reference 32-site lithium setup at J = 0.01 E_R.
    """
    return circuit.depth_formula(n) * gate_time(j_over_recoil)
