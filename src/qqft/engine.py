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

import ctypes
import math
import multiprocessing
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import circuit
from .circuit import CircuitSequence, compile_for_size, gate_matrix

MAX_DIM = 4096

_SALT_FORWARD = (1, 2)
_SALT_INVERSE = (3, 4)
_SALT_DIAGONAL = 5

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x):
    # on Python integers, or on uint64 arrays, whose arithmetic wraps
    # mod 2**64 as the masks do
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


def _box_muller_factors(seed: int, stream_id: int, steps: np.ndarray) -> tuple:
    """S = sqrt(-2 ln u1) and C = cos(2 pi u2) of the integer `steps` of one
    stream, flattened: its draws without sigma."""
    # = _mix64(seed, stream_id, step), one uint64 lane per step
    x = _splitmix64(np.uint64(_mix64(seed, stream_id))
                    ^ steps.astype(np.uint64).ravel())
    u1 = ((x >> 11) + 1) / (1 << 53)       # in (0, 1]
    u2 = (_splitmix64(x) >> 11) / (1 << 53)
    # log and cos in `math`, whose last bits numpy's do not always match;
    # the exact scalings and the correctly rounded sqrt agree in numpy
    log_u1 = np.fromiter(map(math.log, u1.tolist()), float, len(u1))
    S = np.sqrt(-2.0 * log_u1)
    C = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), float, len(u2))
    return S, C


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian noise on the gate generators.

    Identical (seed, stream_id) reproduce identical draws bit-exactly; use
    `substream` to derive independent streams (one per compiled sequence in
    a composite evolution, one per realization in a sweep).  `sigma` may be
    a 1-D column of noise strengths (stored as a tuple): one stream at every
    sigma, each member drawing exactly what it would draw alone.
    """

    sigma: float | tuple
    seed: int
    stream_id: int = 0

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim > 1 or not np.all(np.isfinite(sigma) & (sigma >= 0)):
            raise ValueError(f"sigma must be finite and >= 0, a number or a "
                             f"1-D column; got {self.sigma!r}")
        if sigma.ndim:  # a tuple, so that the frozen model stays immutable
            object.__setattr__(self, "sigma", tuple(sigma.tolist()))

    def delta(self, step):
        """Gaussian draws, shaped sigma.shape + step.shape, for the integer
        Hamiltonian step(s) `step` (Box-Muller transform); a float for one.

        Each draw is the same as drawing its step alone: sigma times
        sigma-free factors, computed once for every sigma of a column.
        """
        steps = np.asarray(step)
        if steps.dtype.kind not in "iu":
            raise TypeError(f"steps must be integers, got {steps.dtype}")
        sigma = np.asarray(self.sigma, dtype=float)
        S, C = _box_muller_factors(self.seed, self.stream_id, steps)
        # (sigma * S) * C rounds as the scalar sigma * sqrt(..) * cos(..)
        draws = ((sigma[..., None] * S) * C).reshape(sigma.shape + steps.shape)
        return draws if draws.ndim else float(draws)

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
def _gate_spectra(seq: CircuitSequence):
    """(layers, E, Z) of the gates in `seq.gates` order: layer tags, the
    eigenphases (n, 2) and eigenbases (n, 2, 2) of each gate.  A phase
    gate's eigenphase is E[:, 0]; its other entries are unused."""
    E = np.zeros((len(seq.gates), 2))
    Z = np.zeros((len(seq.gates), 2, 2), dtype=complex)
    for i, g in enumerate(seq.gates):
        if g.kind == circuit.PHASE:
            w = -g.lam
            E[i, 0] = w - 2 * np.pi * np.round(w / (2 * np.pi))
        else:
            E[i], Z[i] = unitary_eig(gate_matrix(g))
    layers = np.array([g.layer for g in seq.gates], dtype=int)
    # folds the phase gates; the two-site eigenphases are folded already
    return layers, _fold_phases(E), Z


def apply_noisy_sequence(seq: CircuitSequence, noise: NoiseModel = None,
                         invert: bool = False) -> np.ndarray:
    """Compose a sequence as prod_s exp(-i (1 + delta_s) H[s]).

    One delta per Hamiltonian step: all gates sharing a layer tag are scaled
    by the same draw, since they constitute a single strictly-local step.
    A draw of exactly 0 leaves the gate exact, so with sigma = 0 (or `noise`
    None) the result is bit-identical to `sequence_to_unitary`.
    `invert=True` composes the inverse sequence (reversed order, adjoint
    gates, each with its own principal-branch generator and its own draws).
    A column of sigmas composes in one pass into shape sigma.shape + (n, n),
    each member bit-identical to composing it alone.
    """
    shape = () if noise is None else np.shape(noise.sigma)
    B, steps = math.prod(shape), np.arange(seq.depth)
    plan = circuit._wave_plan(seq, invert)
    draws = (np.zeros(seq.depth) if noise is None
             else noise.delta(steps)).reshape(B, seq.depth)
    factors = np.broadcast_to(plan.factors, (B, *plan.factors.shape))
    blocks = np.broadcast_to(plan.blocks, (B, *plan.blocks.shape))
    if draws.any():  # else every gate is exact: no spectra needed
        layers, E, Z = _gate_spectra(seq)
        if invert:
            layers, E = seq.depth - 1 - layers, _fold_phases(-E)
        draws = draws[:, layers]
        d = draws[:, plan.phase]
        factors = np.where(d == 0.0, factors,
                           np.exp(-1j * (1.0 + d) * E[plan.phase, 0]))
        d, Z = draws[:, plan.pair], Z[plan.pair]
        phases = np.exp(-1j * (1.0 + d)[..., None] * E[plan.pair])
        noisy = (Z * phases[..., None, :]) @ Z.conj().swapaxes(1, 2)
        # in place: np.where would allocate one more column of blocks
        np.copyto(noisy, blocks, where=(d == 0.0)[..., None, None])
        blocks = noisy
    U = circuit._apply_waves(seq.n_sites, plan, factors, blocks)
    return U.reshape(shape + U.shape[1:])


def fourier_pair(N: int, noise, axis: int) -> tuple:
    """(V_f, V_i): the compiled N-site Fourier transform and its inverse.

    Each composes with its own draws, from the `axis` entries of the salt
    table; `noise` None gives the noiseless pair, and a column of sigmas
    (see `apply_noisy_sequence`) a column of pairs.
    """
    seq = compile_for_size(N)

    def compose(salt, invert):
        sub = None if noise is None else noise.substream(salt)
        return apply_noisy_sequence(seq, sub, invert=invert)

    return compose(_SALT_FORWARD[axis], False), compose(_SALT_INVERSE[axis], True)


def diagonal_scale(noise: NoiseModel, enabled: bool):
    """Factor 1 + delta on the diagonal generator, from one draw (per sigma)
    of the diagonal substream; exactly 1.0 unless `enabled` and sigma > 0."""
    if enabled and noise is not None:
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


@lru_cache(maxsize=None)
def _blas_thread_setters() -> tuple:
    """`openblas_set_num_threads_local` of each OpenBLAS mapped into this
    process (numpy and scipy bundle one each), looked up once per process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        paths = []
    found = (getattr(ctypes.CDLL(path), "openblas_set_num_threads_local", None)
             for path in paths)
    setters = tuple(fn for fn in found if fn is not None)
    for fn in setters:
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
    if not setters:
        print("qqft: no OpenBLAS exports openblas_set_num_threads_local; "
              "BLAS threads are not pinned", file=sys.stderr)
    return setters


_worker_fn = None  # the sweep's task, set in each worker by _init_worker


def _init_worker(fn, parent_pid: int):
    # prctl(PR_SET_PDEATHSIG, SIGKILL): die with the parent, and exit now if
    # the parent died before that took effect
    global _worker_fn
    ctypes.CDLL(None).prctl(ctypes.c_int(1), ctypes.c_ulong(signal.SIGKILL))
    if os.getppid() != parent_pid:
        os._exit(1)
    for set_local in _blas_thread_setters():
        set_local(1)
    _worker_fn = fn


def _run(i):
    return _worker_fn(i)


def _map_ordered(fn, count: int, workers: int) -> list:
    """[fn(0), ..., fn(count - 1)] in index order, each call on one BLAS
    thread, so results never depend on `workers`.  On Linux, `workers > 1`
    runs the calls in forked processes, which inherit `fn` and die with this
    one; all are joined before the results return.  Elsewhere calls run
    serially."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    linux = sys.platform.startswith("linux")
    workers = min(workers, count, len(os.sched_getaffinity(0))) if linux else 1
    if workers > 1:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(fn, os.getpid())) as pool:
            return list(pool.map(_run, range(count)))
    setters = _blas_thread_setters()
    previous = [set_local(1) for set_local in setters]
    try:
        return [fn(i) for i in range(count)]
    finally:
        for set_local, n in zip(setters, previous):
            set_local(n)


def _noise_sweep(measure, names, sigmas, n: int, seed: int, workers: int,
                 first=None) -> list:
    """One SweepPoint per sigma from n realizations.

    `measure` takes a column NoiseModel and returns one row per sigma of it,
    one value per entry of `names`.  Realization 0 is every sigma on stream
    0, realization r >= 1 the nonzero sigmas on stream r: it reuses its
    draws, scaled, at every sigma, which keeps sweeps smooth.  A zero sigma
    draws only zeros, the same on every stream, so its row of realization 0
    stands for all n.  `first` holds measure's rows of realization 0 if the
    caller measured them.  Tasks run on one BLAS thread each, since BLAS
    results can depend on the thread count.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    sigmas = list(sigmas)
    if not sigmas:  # nothing to measure: no task, no pool
        return []
    noisy = tuple(s for s in sigmas if s != 0)
    tasks = [NoiseModel(tuple(sigmas), seed)] if first is None else []
    tasks += [NoiseModel(noisy, seed, stream_id=r) for r in range(1, n) if noisy]
    rows = [] if first is None else [first]
    rows += _map_ordered(lambda i: measure(tasks[i]), len(tasks),
                         workers) if tasks else []
    points, later = [], zip(*rows[1:])  # the rows of r >= 1, nonzero sigmas
    for sigma, row in zip(sigmas, rows[0]):
        per_r = (row,) * n if sigma == 0 else (row, *next(later, ()))
        points.append(SweepPoint(sigma, dict(zip(names, map(np.array, zip(*per_r))))))
    return points
