"""Dense unitary evolution with multiplicative Gaussian gate noise.

The noise model scales each Hamiltonian step of a compiled sequence,
H[s] -> (1 + delta_s) H[s], with delta_s drawn from a Gaussian of standard
deviation sigma.  Each gate is exponentiated through its Hermitian generator
(principal-branch logarithm, eigenphases in (-pi, pi]), so every noisy factor
stays exactly unitary.  Draws come from a counter-based stream keyed on
(seed, stream_id, step): a realization is reproducible bit-exactly regardless
of evaluation order or worker count.

One realization's noise reaches a composite evolution only through the salt
table below: the forward Fourier sequence along axis k draws from substream
`_SALT_FORWARD[k]`, the inverse one from `_SALT_INVERSE[k]`, and the single
draw on the diagonal step from `_SALT_DIAGONAL`.  The flat band uses axes 0
and 1, the spacetime crystal axis 0.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from .circuit import PHASE, CircuitSequence, compile_for_size, gate_matrix

MAX_DIM = 4096

_SALT_FORWARD = (1, 2)
_SALT_INVERSE = (3, 4)
_SALT_DIAGONAL = 5

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64(*words: int) -> int:
    h = 0
    for w in words:
        h = _splitmix64(h ^ (w & _MASK64))
    return h


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian noise on the gate generators.

    Identical (seed, stream_id) reproduce identical draws bit-exactly; use
    `substream` to derive independent streams (one per compiled sequence in
    a composite evolution, one per realization in a sweep).
    """

    sigma: float
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    def delta(self, step: int) -> float:
        """Gaussian draw for Hamiltonian step `step` (Box-Muller transform)."""
        if self.sigma == 0.0:
            return 0.0
        x = _mix64(self.seed, self.stream_id, step)
        u1 = ((x >> 11) + 1) / (1 << 53)       # in (0, 1]
        u2 = (_splitmix64(x) >> 11) / (1 << 53)
        return self.sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def substream(self, salt: int) -> "NoiseModel":
        return NoiseModel(self.sigma, self.seed, _mix64(self.stream_id, salt))


def unitarity_defect(U: np.ndarray) -> float:
    """Max-norm deviation of U U^dag from the identity."""
    d = U.shape[0]
    return float(np.abs(U @ U.conj().T - np.eye(d)).max())


def _fold_phases(E: np.ndarray) -> np.ndarray:
    # principal branch (-pi, pi]; -pi folds to +pi so swap's generator
    # carries eigenvalue +pi
    return np.where(E <= -np.pi + 1e-12, E + 2 * np.pi, E)


def unitary_eig(U: np.ndarray):
    """Eigenphases E in (-pi, pi] and an orthonormal eigenbasis of a unitary.

    Returns (E, Z) with U = Z diag(exp(-i E)) Z^dag.  Uses a complex Schur
    decomposition, which keeps the basis orthonormal even for degenerate
    eigenvalues; rejects non-unitary input.
    """
    if unitarity_defect(U) > 1e-10:
        raise ValueError("matrix is not unitary")
    T, Z = scipy.linalg.schur(np.asarray(U, dtype=complex), output="complex")
    return _fold_phases(-np.angle(np.diag(T))), Z


def hermitian_log_unitary(U: np.ndarray) -> np.ndarray:
    """Principal-branch Hermitian generator H with exp(-i H) = U."""
    E, Z = unitary_eig(U)
    return (Z * E) @ Z.conj().T


def gate_to_generator(gate) -> np.ndarray:
    """Hermitian generator of a gate on its own 1- or 2-site block."""
    return hermitian_log_unitary(gate_matrix(gate))


@lru_cache(maxsize=64)
def _sequence_spectral(seq: CircuitSequence):
    """Per-gate spectral data: (layer, site, kind, block, E, Z)."""
    out = []
    for g in seq.gates:
        block = gate_matrix(g)
        if g.kind == PHASE:
            w = -g.lam
            w -= 2 * np.pi * np.round(w / (2 * np.pi))
            E = _fold_phases(np.array([w]))
            out.append((g.layer, g.site, g.kind, block, E, None))
        else:
            E, Z = unitary_eig(block)
            out.append((g.layer, g.site, g.kind, block, E, Z))
    return tuple(out)


def apply_noisy_sequence(seq: CircuitSequence, noise: NoiseModel = None,
                         invert: bool = False) -> np.ndarray:
    """Compose a sequence as prod_s exp(-i (1 + delta_s) H[s]).

    One delta per Hamiltonian step: all gates sharing a layer tag are scaled
    by the same draw, since they constitute a single strictly-local step.
    With sigma = 0 (or `noise` None) the result is bit-identical to
    `sequence_to_unitary`.  `invert=True` composes the inverse sequence
    (reversed order, adjoint gates, each with its own principal-branch
    generator and its own draws).
    """
    N = seq.n_sites
    U = np.eye(N, dtype=complex)
    sigma = 0.0 if noise is None else noise.sigma
    spectral = _sequence_spectral(seq)
    if invert:
        spectral = tuple(reversed(spectral))
    for layer, site, kind, block, E, Z in spectral:
        step = seq.depth - 1 - layer if invert else layer
        delta = noise.delta(step) if sigma != 0.0 else 0.0
        if kind == PHASE:
            if delta == 0.0:
                factor = np.conj(block[0, 0]) if invert else block[0, 0]
            else:
                w = _fold_phases(-E) if invert else E
                factor = np.exp(-1j * (1.0 + delta) * w[0])
            U[site, :] *= factor
            continue
        if delta == 0.0:
            blk = block.conj().T if invert else block
        else:
            w = _fold_phases(-E) if invert else E
            blk = (Z * np.exp(-1j * (1.0 + delta) * w)) @ Z.conj().T
        U[site: site + 2, :] = blk @ U[site: site + 2, :]
    return U


def fourier_pair(N: int, noise: NoiseModel, axis: int) -> tuple:
    """(V_f, V_i): the compiled N-site Fourier transform and its inverse.

    Each composes with its own draws, from the `axis` entries of the salt
    table; `noise` None gives the noiseless pair.
    """
    seq = compile_for_size(N)

    def compose(salt, invert):
        sub = noise.substream(salt) if noise is not None else None
        return apply_noisy_sequence(seq, sub, invert=invert)

    return compose(_SALT_FORWARD[axis], False), compose(_SALT_INVERSE[axis], True)


def diagonal_scale(noise: NoiseModel, enabled: bool) -> float:
    """Factor 1 + delta on the diagonal generator, from one draw of the
    diagonal substream; exactly 1.0 unless `enabled` and sigma > 0."""
    if enabled and noise is not None and noise.sigma > 0:
        return 1.0 + noise.substream(_SALT_DIAGONAL).delta(0)
    return 1.0


def diagonal_momentum_blocks(model, scale: float = 1.0) -> np.ndarray:
    """Blocks exp(-i H(m) T) of the diagonal step, shape (grid**d, l, l).

    `model` provides T and `eigensystem`, the per-point eigenvalues and
    eigenvectors of its Hermitian sampler blocks (see
    `protocol.MomentumModel`), which are computed once per model.  Blocks are
    ordered row-major in the grid coordinates; `scale` multiplies every
    generator (used for noise on the diagonal step), so it only rescales the
    cached phases.
    """
    w, Q = model.eigensystem
    return (Q * np.exp(-1j * w * model.T * scale)[:, None, :]) @ Q.conj().swapaxes(1, 2)


def diagonal_momentum_evolution(model, scale: float = 1.0) -> np.ndarray:
    """Dense block-diagonal evolution exp(-i H(m) T) over the momentum grid.

    The blocks of `diagonal_momentum_blocks` on the diagonal, with the
    orbital index fastest in the composite state index.
    """
    if model.dim > MAX_DIM:
        raise ValueError(f"evolution dimension {model.dim} exceeds {MAX_DIM}")
    return scipy.linalg.block_diag(*diagonal_momentum_blocks(model, scale))


@dataclass
class SweepPoint:
    """Named per-realization samples (realization order) at one sigma."""

    sigma: float
    samples: dict

    def mean(self, name: str) -> float:
        return float(self.samples[name].mean())

    def stderr(self, name: str) -> float:
        x = self.samples[name]
        if len(x) < 2:
            return 0.0
        return float(x.std(ddof=1) / np.sqrt(len(x)))


def _map_ordered(fn, count: int, workers: int) -> list:
    """[fn(0), ..., fn(count - 1)], in index order for any worker count."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _noise_sweep(measure, names, sigmas, n: int, seed: int, workers: int) -> list:
    """One SweepPoint per sigma from n realizations of `measure(noise)`.

    `measure` returns one value per entry of `names`.  Realization r draws
    from `NoiseModel(sigma, seed, stream_id=r)`, so it reuses the same
    Gaussian draws, scaled, at every sigma, which keeps sweeps smooth.
    """
    points = []
    for sigma in sigmas:
        def one(r, sigma=sigma):
            return measure(NoiseModel(sigma, seed, stream_id=r))
        rows = _map_ordered(one, n, workers)
        samples = dict(zip(names, map(np.array, zip(*rows))))
        points.append(SweepPoint(sigma=sigma, samples=samples))
    return points
