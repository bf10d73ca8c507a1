"""Assemble the engineered evolution U = V exp(-i H_D T) V^dag.

V is the compiled Fourier transform applied along every spatial dimension
(identity on the orbital factor), and H_D is the block-diagonal momentum
Hamiltonian programmed site by site.  Eigenphases of U give the band
energies; with the default evolution time T = 1/(2 pi) ms and band norms of
2 pi rad/ms (i.e. 2 pi x 1 kHz) all phases stay safely inside the principal
branch.

Assembly never forms a dim x dim Kronecker product.  The noisy evolution is
U = V_f U_d V_i with V_f = F_1 (x) ... (x) F_d (x) I_l and V_i = G_1 (x) ...
(x) G_d (x) I_l from the inverted sequences (grid x grid factors), and U_d
block diagonal with l x l blocks.  In two dimensions the inner pair
(F_2, G_2) first folds into the blocks, a tensor T[p1, (p2, a), (q2, b)] of
grid^3 l^2 entries; in one, T is the blocks themselves.  One broadcast
product Z[p1, x, q1, y] = G_1[p1, q1] T[p1, x, y] and one GEMM F_1 Z then
write U in its final row-major layout, so an evolution allocates Z and U,
2 dim^2 values, beyond its factors.  U is similar to the core
C = U_d (V_i V_f) = V_f^-1 U V_f, whose Fourier part is the product of
per-dimension grid x grid factors (the identity without noise).  Spectra
are taken from U itself.

Eigenphases come from the Hermitian part of U: for unitary
U = Z diag(exp(i theta)) Z^dag, S = (U - U^dag) / 2i = Z diag(sin theta) Z^dag.
Since S is Hermitian by construction, unitarity is checked apart, on a
fixed block of probe vectors.  Both routes form S with `_hermitian_part`:
U^T copied in cache-sized tiles into one Fortran-ordered array, then the
difference and the factor 1/2i in place, bit for bit (U^dag - U) 0.5j
without a strided full-size pass or a second full-size temporary.  The gap
sweep first tries the sine route, theta = arcsin(eigvalsh(S)), valid while
every |theta| < pi/2: one eigensolve without vectors.  That solve is
LAPACK's two-stage reduction, zheevd_2stage (dense to band by BLAS-3, then
bulge chasing), which SciPy does not wrap but its OpenBLAS exports
through LAPACKE: `_two_stage` looks it up once per process, by one fixed
LP64 symbol in the mapped OpenBLAS libraries, in their fixed order, and
where none exports it the solve is `scipy.linalg.eigvalsh`.  A
certificate of O(dim) accepts the sines: every
cos(theta) = sqrt(1 - sin^2 theta) is at least `SINE_COS_MIN`, which
bounds arcsin's error gain, and their sum matches Re tr U = sum cos(theta)
within `SINE_COS_MIN`, which fails as soon as one phase has
cos(theta) <= -SINE_COS_MIN.

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

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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


class PhaseWrapError(ValueError):
    """Eigenphases reached the branch cut; the evolution time is too long."""


@functools.cache
def _linalg():
    """scipy.linalg, imported on first use: the flat-band eigensolvers are
    the only code that needs SciPy, so compiling, verifying and the
    spacetime crystal never load it.  Building a `MomentumModel` calls
    this too, so that a sweep loads SciPy, and its OpenBLAS, in the
    process that starts it, before any worker forks."""
    import scipy.linalg
    return scipy.linalg


@dataclass(frozen=True)
class MomentumModel:
    """The momentum-space Hamiltonian on a uniform grid, as one stack.

    hamiltonian() must return every l x l Hermitian block at once, shape
    (grid**d, l, l), row-major in the grid coordinates, as is the composite
    state index, whose orbital index runs fastest.  The dimension d is 1
    or 2, l >= 1 and grid >= 2 are integers, the evolution dimension
    grid**d * l is at most `engine.MAX_DIM`, and the evolution time T (ms)
    is finite and > 0; each is checked when the model is built.
    """

    d: int
    l: int
    grid: int
    hamiltonian: Callable[[], np.ndarray]
    T: float = T_DEFAULT

    def __post_init__(self):
        for name, least in (("d", 1), ("l", 1), ("grid", 2)):
            value = circuit._integer(getattr(self, name), name, least)
            object.__setattr__(self, name, value)
        if self.d > 2:
            raise ValueError(f"unsupported dimension d={self.d}")
        if self.dim > engine.MAX_DIM:
            raise ValueError(f"grid={self.grid} gives evolution dimension "
                             f"{self.dim}, which exceeds {engine.MAX_DIM}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be finite and > 0, got {self.T}")
        _linalg()

    @property
    def dim(self) -> int:
        return self.grid ** self.d * self.l

    @functools.cached_property
    def eigensystem(self):
        """(w, Q): eigenvalues, shape (grid**d, l), and eigenvectors, shape
        (grid**d, l, l), of the Hamiltonian's blocks.

        Computed on first use and kept (the model is frozen, so the cache
        cannot go stale): `hamiltonian` runs once per model.  Rejects a
        stack of the wrong shape, and one with a block that is not
        Hermitian, naming the first such grid point.
        """
        shape = (self.grid ** self.d, self.l, self.l)
        H = np.asarray(self.hamiltonian(), dtype=complex)
        if H.shape != shape:
            raise ValueError(f"hamiltonian has shape {H.shape}, expected {shape}")
        skew = np.abs(H - H.conj().swapaxes(1, 2)).max(axis=(1, 2))
        bad = np.flatnonzero(skew > 1e-10 * np.maximum(1.0, np.abs(H).max(axis=(1, 2))))
        if len(bad):
            m = tuple(map(int, np.unravel_index(bad[0], (self.grid,) * self.d)))
            raise ValueError(f"block at {m} is not Hermitian")
        return np.linalg.eigh(H)

    def diagonal_blocks(self, scale: float) -> np.ndarray:
        """Blocks exp(-i H(m) T scale) of the diagonal step, shape
        (grid**d, l, l), in the order of the Hamiltonian's stack.

        `scale` multiplies every generator (noise on the diagonal step), so
        it only rescales the phases of the kept `eigensystem`.
        """
        w, Q = self.eigensystem
        phases = np.exp(-1j * w * self.T * scale)
        return (Q * phases[:, None, :]) @ Q.conj().swapaxes(1, 2)


@dataclass
class SpectrumResult:
    """Band energies extracted from the eigenphases of an evolution.

    `energies` is sorted ascending and split into `n_bands` equal chunks by
    global energy ordering (under noise there is no better quantum number);
    gap and width are recomputed from the stored energies on access.
    """

    energies: np.ndarray
    n_bands: int

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


def build_protocol_unitary(model: MomentumModel, block=engine.NOISELESS):
    """Compose (noisy) per-dimension Fourier sequences around the diagonal
    step, once per member of the noise block `block` (see `engine`), in
    order.

    Every compiled sequence (one forward and one inverse per dimension) of
    every member draws from its own noise substream, and all of them
    compose in one pass per direction.  A member of sigma 0 (the default
    `NOISELESS`) equals V Omega_D V^dag exactly; one of a model whose
    `diagonal` is set takes one more draw, which scales the whole diagonal
    generator.  The result is an iterator of evolutions, each built when it
    is reached, so that one dim x dim evolution at a time is in memory.
    A member whose diagonal step raises (a model that cannot be flattened)
    leaves the next member to be built by the next call.  The Fourier
    pairs set the malloc policy of `engine._keep_freed_memory`, as a sweep
    does.
    """
    V_f, V_i = engine.fourier_pair(model.grid, block, model.d)
    scales = engine.diagonal_scale(block).tolist()
    g, n = model.grid, model.dim // model.grid  # n: rows per outer coordinate

    def evolution(i):  # member i: V_f U_d V_i from its per-axis factors
        T = model.diagonal_blocks(scales[i])
        if model.d == 2:  # fold axis 2 in: T[p1, (p2', a), (q2, b)]
            T = np.matmul(V_f[1, i], (T.reshape(g, g, model.l, 1, model.l)
                                      * V_i[1, i][:, None, :, None]).reshape(g, g, -1))
        # Z[p1, x, q1, y] = G_1[p1, q1] T[p1, x, y]; F_1 Z has rows (p1', x)
        Z = V_i[0, i][:, None, :, None] * T.reshape(g, n, 1, n)
        return np.matmul(V_f[0, i], Z.reshape(g, -1)).reshape(model.dim, model.dim)

    return map(evolution, range(len(scales)))


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


def _hermitian_part(U: np.ndarray) -> np.ndarray:
    """S = (U - U^dag) / 2i of a square complex U, Fortran-ordered and bit for
    bit 0.5j * (U^dag - U), in one new array and no other full-size one.

    The array B = S^T is first U^T, copied in tiles of 64 x 64 entries (64 KB
    each) that stay in cache, where a strided full-size transpose does not.
    Then, in place, Re B = Re U - Re B and Im B = -Im B - Im U give
    conj(U) - U^T with the operands of U^dag - U, so signed zeros agree too,
    and B *= 0.5j.
    """
    n = len(U)
    B = np.empty((n, n), dtype=complex)
    for i in range(0, n, 64):
        for j in range(0, n, 64):
            B[i:i + 64, j:j + 64] = U[j:j + 64, i:i + 64].T
    np.subtract(U.real, B.real, out=B.real)
    np.negative(B.imag, out=B.imag)
    np.subtract(B.imag, U.imag, out=B.imag)
    B *= 0.5j
    return B.T


#: LAPACKE's two-stage Hermitian eigenvalue driver, as SciPy's OpenBLAS
#: exports it, with a 32-bit lapack_int (LP64)
_TWO_STAGE = "scipy_LAPACKE_zheevd_2stage"

#: LAPACKE's matrix_layout for column-major (Fortran-ordered) arrays
_LAPACK_COL_MAJOR = 102


@functools.cache
def _two_stage():
    """LAPACKE zheevd_2stage (`_TWO_STAGE`), argtypes declared, from the
    first library of `engine._openblas_libs()` that exports it; None where
    none does (MKL, Accelerate, older wheels).  Looked up once per process,
    after SciPy has loaded, so the choice never depends on what the process
    imported or called before."""
    _linalg()
    for lib in engine._openblas_libs():
        solve = getattr(lib, _TWO_STAGE, None)
        if solve is not None:
            # (matrix_layout, jobz, uplo, n, a, lda, w)
            solve.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char,
                              ctypes.c_int32, ctypes.c_void_p, ctypes.c_int32,
                              ctypes.c_void_p)
            solve.restype = ctypes.c_int32
            return solve
    return None


def _eigvalsh(S: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Fortran-ordered complex Hermitian S, from
    its lower triangle, by LAPACK's two-stage reduction (`_two_stage`);
    where no library exports it, by `scipy.linalg.eigvalsh`.  S may be
    overwritten.  Raises LinAlgError when LAPACK reports a failure."""
    solve = _two_stage()
    if solve is None:
        return _linalg().eigvalsh(S, overwrite_a=True, check_finite=False)
    S = np.asfortranarray(S, dtype=complex)  # no copy for the S of `_hermitian_part`
    n = len(S)
    w = np.empty(n)
    info = solve(_LAPACK_COL_MAJOR, b"N", b"L", n, S.ctypes.data, max(n, 1),
                 w.ctypes.data)
    if info:
        raise np.linalg.LinAlgError(f"zheevd_2stage failed: info = {info}")
    return w


def _sine_phases(U: np.ndarray):
    """Eigenphases theta of a unitary U: arcsin of the eigenvalues of
    S = (U - U^dag) / 2i while the sine route's certificate of the module
    docstring holds, else those of `_arctan2_phases`.  The eigenvalues come
    from `_eigvalsh`: LAPACK's two-stage reduction (dense to band by BLAS-3,
    then bulge chasing), looked up once in a fixed order, or
    `scipy.linalg.eigvalsh` where no library exports it."""
    sin = _eigvalsh(_hermitian_part(U))
    cos = np.sqrt(1.0 - np.minimum(sin * sin, 1.0))
    if cos.min() < SINE_COS_MIN or abs(np.trace(U).real - cos.sum()) >= SINE_COS_MIN:
        return _arctan2_phases(U)[0]
    return np.arcsin(sin)


def _arctan2_phases(U: np.ndarray):
    """(theta, Z): the eigenphases of a unitary U and an orthonormal
    eigenbasis, theta_j belonging to column j of Z, by the arctan2 route of
    the module docstring.  Raises PhaseWrapError when any |theta| >=
    pi - WRAP_MARGIN."""
    sin, Z = _linalg().eigh(_hermitian_part(U), overwrite_a=True, check_finite=False)
    W = U @ Z
    theta = np.arctan2(sin, np.einsum("ij,ij->j", Z.conj(), W).real)
    bound = UNITARY_TOL * math.sqrt(len(U))
    bad = np.linalg.norm(W - Z * np.exp(1j * theta), axis=0) > bound
    if bad.any():  # every run of near-equal sines (eigh sorts them) that fails
        run_of = np.concatenate(([0], np.cumsum(np.diff(sin) > CLUSTER_GAP)))
        c = np.flatnonzero(np.isin(run_of, run_of[bad]))
        T, Q = _linalg().schur(Z[:, c].conj().T @ W[:, c], output="complex")
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
    return SpectrumResult(energies=np.sort(-theta / T), n_bands=l)

