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
realization whose eigensolve takes about 75.

Eigenphases come from the Hermitian part of U: for unitary
U = Z diag(exp(i theta)) Z^dag, S = (U - U^dag) / 2i = Z diag(sin theta) Z^dag.
Since S is Hermitian by construction, unitarity is checked apart, on a
fixed block of probe vectors.  The gap sweep first tries the sine route,
theta = arcsin(eigvalsh(S)), valid while every |theta| < pi/2: one
eigensolve without vectors.  A certificate of O(dim) accepts it: every
cos(theta) = sqrt(1 - sin^2 theta) is at least `SINE_COS_MIN`, which bounds
arcsin's error gain, and their sum matches Re tr U = sum cos(theta) within
`SINE_COS_MIN`, which fails as soon as one phase has cos(theta) <=
-SINE_COS_MIN.

The Bott index, and every spectrum that fails that certificate, take the
arctan2 route: eigh(S) with vectors Z, cos theta_j = Re z_j^dag (U z_j)
from one product U Z, and theta = arctan2(sin, cos), accurate to roundoff
up to the branch cut.  Its certificate is the residual
|U z_j - exp(i theta_j) z_j| of every column, which bounds the phase error:
a column passes at up to `UNITARY_TOL` sqrt(dim), the defect that the
probes let through.  A mirrored pair theta, pi - theta shares one sine, so
eigh(S) mixes its vectors and the residual fails; a unitarity defect below
the probe bound also mixes vectors whose sines differ, by about
defect / (sine gap).  The runs of near-equal sines (consecutive gaps
below `CLUSTER_GAP`) that hold a failing column are then solved together,
by a complex Schur form of the k x k matrix Z_c^dag U Z_c, whose
eigenvalues give theta; what it leaves of their residuals leaks into
columns that passed.  A Hermitian k x k matrix such as
Z_c^dag (U + U^dag) Z_c / 2 could not split every run: cos theta does not
tell theta from -theta when a run straddles sin = 0.  Clean flat bands,
whose large runs hold one theta, pass without that step.  Whether U is
unitary is the probes' call alone, for both routes: every U they let
through gets its eigenphases.
Eigenphases within `WRAP_MARGIN` of the branch cut theta = +-pi raise
PhaseWrapError, since energies there are ambiguous mod 2 pi / T.

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

#: smallest cos(theta) the sine route accepts: arcsin's error gain stays below
#: 1 / SINE_COS_MIN, and a phase with cos(theta) <= -SINE_COS_MIN moves
#: Re tr U by at least twice this from the certificate's sum
SINE_COS_MIN = 0.1

#: unitarity tolerance per sqrt(dim): the probe check rejects a probe x with
#: |U^dag U x - x| > UNITARY_TOL sqrt(dim), and the arctan2 route solves
#: again the columns whose residual |U z - exp(i theta) z| (z a unit
#: eigenvector) exceeds the same bound
UNITARY_TOL = 1e-10

#: sines closer than this chain into one run of the arctan2 route's cluster
#: step; eigh(S) mixes two vectors by about 1e-16 / (their sine gap), so
#: columns further apart leave residuals far below the certificate's bound
CLUSTER_GAP = 1e-4

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

    @functools.cached_property
    def eigensystem(self):
        """(w, Q): eigenvalues, shape (grid**d, l), and eigenvectors, shape
        (grid**d, l, l), of the sampler blocks, row-major in the grid
        coordinates.

        Computed on first use and kept (the model is frozen, so the cache
        cannot go stale): the sampler runs once per model.  Rejects blocks
        of the wrong shape or that are not Hermitian, naming the first such
        grid point.
        """
        points = list(np.ndindex((self.grid,) * self.d))
        H = np.empty((len(points), self.l, self.l), dtype=complex)
        for i, m in enumerate(points):
            block = np.asarray(self.sampler(*m), dtype=complex)
            if block.shape != H.shape[1:]:
                raise ValueError(f"sampler block at {m} has shape {block.shape}")
            H[i] = block
        skew = np.abs(H - H.conj().swapaxes(1, 2)).max(axis=(1, 2))
        bad = np.flatnonzero(skew > 1e-10 * np.maximum(1.0, np.abs(H).max(axis=(1, 2))))
        if len(bad):
            raise ValueError(f"sampler block at {points[bad[0]]} is not Hermitian")
        return np.linalg.eigh(H)


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


def build_protocol_unitary(model: MomentumModel,
                           noise: engine.NoiseModel = engine.NOISELESS[0]) -> np.ndarray:
    """Compose (noisy) per-dimension Fourier sequences around the diagonal step.

    `noise` is one model of one sigma: the block `[noise]` of one member.
    Every compiled sequence (one forward and one inverse per dimension) draws
    from its own noise substream.  With sigma = 0 (the default) the result
    equals V Omega_D V^dag exactly.  When `noise.diagonal` is set, one more
    draw scales the whole diagonal generator.
    """
    if model.d not in (1, 2):
        raise ValueError(f"unsupported dimension d={model.d}")
    if model.dim > engine.MAX_DIM:
        raise ValueError(f"evolution dimension {model.dim} exceeds {engine.MAX_DIM}")
    if np.ndim(noise.sigma):
        raise ValueError("one evolution takes one sigma, not a column")
    pairs = [engine.fourier_pair(model.grid, [noise], k) for k in range(model.d)]
    forward = [V_f[0] for V_f, _ in pairs]
    inverse = functools.reduce(np.kron, [V_i[0] for _, V_i in pairs])
    blocks = engine.diagonal_momentum_blocks(model, engine.diagonal_scale([noise])[0])
    # U_d V_i: entry ((p, a), (q, b)) is blocks[p, a, b] * inverse[p, q]
    ud_vi = np.einsum("pab,pq->paqb", blocks, inverse)
    return _apply_kron(forward, ud_vi.reshape(model.dim, model.dim))


def _checked_unitary(U) -> np.ndarray:
    """U as a complex array, after the probe check: ValueError when some of
    four fixed complex Gaussian probes x gives |U^dag U x - x| >
    `UNITARY_TOL` sqrt(dim), PhaseWrapError when U is not finite."""
    U = np.asarray(U, dtype=complex)
    X = np.random.default_rng(U.shape[0]).standard_normal((U.shape[0], 8)).view(complex)
    defect = np.linalg.norm((U @ X).conj().T @ U - X.conj().T, axis=1).max()
    if not np.isfinite(defect):
        raise PhaseWrapError("matrix is not finite: no eigenphases")
    if defect > UNITARY_TOL * math.sqrt(U.shape[0]):
        raise ValueError("matrix is not unitary")
    return U


def _sine_phases(U: np.ndarray):
    """Eigenphases theta of a unitary U: arcsin of the eigenvalues of
    S = (U - U^dag) / 2i while the sine route's certificate of the module
    docstring holds, else those of `_arctan2_phases`."""
    S = U.conj().T          # becomes U^dag - U, then S
    S -= U
    S *= 0.5j
    sin = scipy.linalg.eigvalsh(S, overwrite_a=True, check_finite=False)
    cos = np.sqrt(1.0 - np.minimum(sin * sin, 1.0))
    if cos.min() < SINE_COS_MIN or abs(np.trace(U).real - cos.sum()) >= SINE_COS_MIN:
        return _arctan2_phases(U)[0]
    return np.arcsin(sin)


def _arctan2_phases(U: np.ndarray):
    """(theta, Z): the eigenphases of a unitary U and an orthonormal
    eigenbasis, theta_j belonging to column j of Z, by the arctan2 route of
    the module docstring.  Raises PhaseWrapError when any |theta| >=
    pi - WRAP_MARGIN."""
    S = U.conj().T          # becomes U^dag - U, then S
    S -= U
    S *= 0.5j
    sin, Z = scipy.linalg.eigh(S, overwrite_a=True, check_finite=False)
    W = U @ Z
    theta = np.arctan2(sin, np.einsum("ij,ij->j", Z.conj(), W).real)
    bound = UNITARY_TOL * math.sqrt(len(U))
    bad = np.linalg.norm(W - Z * np.exp(1j * theta), axis=0) > bound
    if bad.any():  # every run of near-equal sines (eigh sorts them) that fails
        run_of = np.concatenate(([0], np.cumsum(np.diff(sin) > CLUSTER_GAP)))
        c = np.flatnonzero(np.isin(run_of, run_of[bad]))
        T, Q = scipy.linalg.schur(Z[:, c].conj().T @ W[:, c], output="complex")
        Z[:, c], theta[c] = Z[:, c] @ Q, np.angle(np.diag(T))
    if np.abs(theta).max() >= np.pi - WRAP_MARGIN:
        raise PhaseWrapError("eigenphase at the branch cut; choose a shorter evolution time")
    return theta, Z


def extract_spectrum(U: np.ndarray, T: float, l: int) -> SpectrumResult:
    """Energies E = -theta/T from the eigenphases theta of a unitary U.

    Takes theta from the sine route when its certificate holds, else from
    the arctan2 route (see the module docstring).  Raises PhaseWrapError
    when any eigenphase sits within `WRAP_MARGIN` of the branch cut, since
    energies would then be ambiguous mod 2 pi / T, or when U is not finite,
    and ValueError when U is not unitary (see `_checked_unitary`).
    """
    theta = _sine_phases(_checked_unitary(U))
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
