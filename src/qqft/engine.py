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
draw on the diagonal step, taken only when the model's `diagonal` is set,
from `_SALT_DIAGONAL`.  The flat band uses axes 0 and 1, the spacetime
crystal axis 0; `fourier_pair` composes every axis of a block in one pass
per direction.

Every composition takes its noise as a block: a sequence of NoiseModels,
each adding one member per sigma, in order, such as a block of
realizations of a sweep, one column of sigmas each; an empty block gives
no members.  `NOISELESS`, one member of sigma 0, is the noiseless block: a
zero sigma draws only zeros, which keep every gate exact.  All members
compose in one pass of the batch-last wave kernel `circuit._apply_waves`,
whose arithmetic is elementwise, so each member is bit-identical to
composing it alone, whatever the block.  `_noise_sweep` hands its
measurement fixed blocks of `_BLOCK` consecutive realizations.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, islice

import numpy as np
import scipy.linalg

from . import circuit
from .circuit import CircuitSequence, compile_for_size, gate_matrix

MAX_DIM = 4096

#: realizations per task of `_noise_sweep`, which a Poincare sweep composes
#: in one wave pass per direction; peak memory grows with it
_BLOCK = 4

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


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative Gaussian noise on the gate generators.

    Identical (seed, stream_id) reproduce identical draws bit-exactly; use
    `substream` to derive independent streams (one per compiled sequence in
    a composite evolution, one per realization in a sweep).  `sigma` may be
    a 1-D column of noise strengths (stored as a tuple): one stream at every
    sigma, each member drawing exactly what it would draw alone.  `diagonal`
    also puts noise on the diagonal step (see `diagonal_scale`); substreams
    keep it, so every evolution built from the model reads the same choice.
    """

    sigma: float | tuple
    seed: int
    stream_id: int = 0
    diagonal: bool = False

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

        Each draw is the same as drawing its step alone: sigma times the
        sigma-free factors S = sqrt(-2 ln u1) and C = cos(2 pi u2) of its
        step, computed once for every sigma of a column.
        """
        steps = np.asarray(step)
        if steps.dtype.kind not in "iu":
            raise TypeError(f"steps must be integers, got {steps.dtype}")
        # = _mix64(seed, stream_id, step), one uint64 lane per step
        x = _splitmix64(np.uint64(_mix64(self.seed, self.stream_id))
                        ^ steps.astype(np.uint64).ravel())
        u1 = ((x >> 11) + 1) / (1 << 53)       # in (0, 1]
        u2 = (_splitmix64(x) >> 11) / (1 << 53)
        # log and cos in `math`, whose last bits numpy's do not always match;
        # the exact scalings and the correctly rounded sqrt agree in numpy
        log_u1 = np.fromiter(map(math.log, u1.tolist()), float, len(u1))
        S = np.sqrt(-2.0 * log_u1)
        C = np.fromiter(map(math.cos, (2.0 * math.pi * u2).tolist()), float, len(u2))
        sigma = np.asarray(self.sigma, dtype=float)
        # (sigma * S) * C rounds as the scalar sigma * sqrt(..) * cos(..)
        draws = ((sigma[..., None] * S) * C).reshape(sigma.shape + steps.shape)
        return draws if draws.ndim else float(draws)

    def substream(self, salt: int) -> "NoiseModel":
        return replace(self, stream_id=_mix64(self.stream_id, salt))


#: the noiseless block: one member, whose draws are all (signed) zeros
NOISELESS = (NoiseModel(0.0, 0),)


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


@lru_cache(maxsize=64)
def _gate_spectra(seq: CircuitSequence):
    """(layers, E, P) of the gates in `seq.gates` order: layer tags, the
    eigenphases (n, 2) and the eigenprojectors P[:, k] = Z_k Z_k^dag
    (n, 2, 2, 2) of each gate's eigenvectors Z_k.  A phase gate's eigenphase
    is E[:, 0]; its other entries are unused."""
    E = np.zeros((len(seq.gates), 2))
    Z = np.zeros((len(seq.gates), 2, 2), dtype=complex)
    for i, g in enumerate(seq.gates):
        if g.kind == circuit.PHASE:
            w = -g.lam
            E[i, 0] = w - 2 * np.pi * np.round(w / (2 * np.pi))
        else:
            E[i], Z[i] = unitary_eig(gate_matrix(g))
    layers = np.array([g.layer for g in seq.gates], dtype=int)
    # P[g, k, i, j] = Z[g, i, k] conj(Z[g, j, k])
    P = np.moveaxis(Z[:, :, None, :] * Z.conj()[:, None, :, :], 3, 1)
    # folds the phase gates; the two-site eigenphases are folded already
    return layers, _fold_phases(E), np.ascontiguousarray(P)


def _noisy_gates(seq: CircuitSequence, block, invert: bool) -> tuple:
    """(factors, blocks): the gates of `seq`'s wave plan for every member of
    `block`, in the layout of `circuit._apply_waves`.  A noisy two-site gate
    is p_0 P_0 + p_1 P_1, its eigenprojectors P_k weighted by the phases
    p_k = exp(-i (1 + delta) E_k).  A draw of exactly 0 keeps the gate
    exact."""
    steps, plan = np.arange(seq.depth), circuit._wave_plan(seq, invert)
    # draws[step, member]: one delta call per model; an empty block has none
    draws = np.concatenate([np.empty((seq.depth, 0))] + [
        m.delta(steps).reshape(np.size(m.sigma), seq.depth).T for m in block],
        axis=1)
    B = draws.shape[1]
    factors = np.broadcast_to(plan.factors[:, None], (len(plan.phase), B))
    blocks = np.broadcast_to(plan.blocks[..., None], (len(plan.pair), 2, 2, B))
    if not draws.any():  # every gate is exact: no spectra needed
        return factors, blocks
    layers, E, P = _gate_spectra(seq)
    if invert:
        layers, E = seq.depth - 1 - layers, _fold_phases(-E)
    draws = draws[layers]
    d = draws[plan.phase]
    factors = np.where(d == 0.0, factors,
                       np.exp(-1j * (1.0 + d) * E[plan.phase, 0, None]))
    d, P = draws[plan.pair], P[plan.pair, ..., None]
    p = -1j * (1.0 + d)[:, None] * E[plan.pair, :, None]
    np.exp(p, out=p)
    noisy = P[:, 0] * p[:, None, None, 0]
    noisy += P[:, 1] * p[:, None, None, 1]
    # in place: np.where would allocate one more stack of blocks
    np.copyto(noisy, blocks, where=(d == 0.0)[:, None, None])
    return factors, noisy


def apply_noisy_sequence(seq: CircuitSequence, block=NOISELESS,
                         invert: bool = False) -> np.ndarray:
    """Compose a sequence as prod_s exp(-i (1 + delta_s) H[s]), once per
    member of the noise block `block`, in shape (members, n, n).

    One delta per Hamiltonian step: all gates sharing a layer tag are scaled
    by the same draw, since they constitute a single strictly-local step.
    A draw of exactly 0 leaves the gate exact, so a zero-sigma member (and
    the default `NOISELESS`) is bit-identical to `sequence_to_unitary`.
    `invert=True` composes the inverse sequence (reversed order, adjoint
    gates, each with its own principal-branch generator and its own draws).
    Each model of the block takes one `delta` call, and every member is
    bit-identical to composing it alone (see `circuit._apply_waves`).
    """
    U = circuit._apply_waves(seq.n_sites, circuit._wave_plan(seq, invert),
                             *_noisy_gates(seq, block, invert))
    return np.ascontiguousarray(np.moveaxis(U, -1, 0))


def fourier_pair(N: int, block, d: int) -> tuple:
    """(V_f, V_i): the compiled N-site Fourier transform and its inverse
    along axes 0..d-1, each of shape (d, members, N, N), one per axis and
    member of the noise block.

    Each direction composes every axis of every member in one pass, with
    its own draws: axis k takes every model of the block to the k entries
    of the salt table.
    """
    seq = compile_for_size(N)
    pair = (apply_noisy_sequence(seq, [m.substream(salts[k]) for k in range(d)
                                       for m in block], invert=invert)
            for salts, invert in ((_SALT_FORWARD, False), (_SALT_INVERSE, True)))
    return tuple(V.reshape(d, len(V) // d, N, N) for V in pair)


def diagonal_scale(block) -> np.ndarray:
    """Factor 1 + delta on the diagonal generator, one per member of the
    noise block, from one draw (per sigma) of each model's diagonal
    substream; exactly 1.0 for a model whose `diagonal` is not set and for
    a zero sigma."""
    return np.concatenate([np.empty(0)] + [np.broadcast_to(
        1.0 + m.substream(_SALT_DIAGONAL).delta(0) if m.diagonal else 1.0,
        np.size(m.sigma)) for m in block])


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


def _openblas_libs() -> list:
    """Each OpenBLAS mapped into this process (numpy and scipy bundle one
    each), in path order."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        paths = []
    return [ctypes.CDLL(path) for path in paths]


@lru_cache(maxsize=None)
def _pin_blas() -> None:
    """Set every OpenBLAS of this process to one thread, once and for good:
    after a fork, any setter call, even one that sets 1, restarts the helper
    threads that the fork shut down, and they spin for tens of ms."""
    setters = [fn for fn in (getattr(lib, "openblas_set_num_threads_local", None)
                             for lib in _openblas_libs()) if fn is not None]
    if not setters:
        print("qqft: no OpenBLAS exports openblas_set_num_threads_local; "
              "BLAS threads are not pinned", file=sys.stderr)
    for set_local in setters:
        set_local(1)


_worker_fn = None  # the sweep's task, set in each worker by _init_worker


def _init_worker(fn, parent_pid: int):
    # prctl(PR_SET_PDEATHSIG, SIGKILL): die with the parent, and exit now if
    # the parent died before that took effect.  No BLAS setter: the worker
    # inherits the pin, and a setter call here would start helper threads
    global _worker_fn
    ctypes.CDLL(None).prctl(ctypes.c_int(1), ctypes.c_ulong(signal.SIGKILL))
    if os.getppid() != parent_pid:
        os._exit(1)
    _worker_fn = fn


def _run(i):
    return _worker_fn(i)


def _map_ordered(fn, count: int, workers: int) -> list:
    """[fn(0), ..., fn(count - 1)] in index order, each call on one BLAS
    thread, so results never depend on `workers`: the first call pins the
    process to one BLAS thread for good (`_pin_blas`).  On Linux, `workers
    > 1` runs the calls in forked processes, which inherit `fn` and the pin
    and die with this one; all are joined before the results return.
    Elsewhere calls run serially."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _pin_blas()
    linux = sys.platform.startswith("linux")
    workers = min(workers, count, len(os.sched_getaffinity(0))) if linux else 1
    if workers > 1:
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(fn, os.getpid())) as pool:
            return list(pool.map(_run, range(count)))
    return [fn(i) for i in range(count)]


def _noise_sweep(measure, names, noise: NoiseModel, n: int, workers: int) -> tuple:
    """(points, first): one SweepPoint per sigma of the column `noise` from n
    realizations, and measure's rows of realization 0.

    Realization 0 is `noise` itself, which must start on stream 0;
    realization r >= 1 is the same model with the nonzero sigmas, on stream
    r: it reuses its draws, scaled, at every sigma, which keeps sweeps
    smooth.  A zero sigma draws only zeros, the same on every stream, so its
    row of realization 0 stands for all n.

    Realizations run in blocks of `_BLOCK` consecutive ones, the last block
    shorter.  `measure` takes a block, a list of column NoiseModels, and
    returns one row per member of it, one value per entry of `names`
    first; values past those reach only `first`.  Each block is a task of
    one `_map_ordered` call, on one BLAS thread, since BLAS results can
    depend on the thread count.  Blocks are never sized by `workers`, so no
    result depends on the worker count.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if np.ndim(noise.sigma) != 1 or noise.stream_id != 0:
        raise ValueError(f"a sweep takes a column of sigmas on stream 0, got {noise}")
    if not noise.sigma:  # nothing to measure: no task, no pool
        return [], []
    noisy = tuple(s for s in noise.sigma if s != 0)
    tasks = [noise] + [replace(noise, sigma=noisy, stream_id=r)
                       for r in range(1, n) if noisy]
    blocks = [tasks[i:i + _BLOCK] for i in range(0, len(tasks), _BLOCK)]
    done = _map_ordered(lambda i: measure(blocks[i]), len(blocks), workers)
    members = chain.from_iterable(done)  # one row per member, in task order
    first, *rows = [list(islice(members, len(t.sigma))) for t in tasks]
    points, later = [], zip(*rows)  # the rows of r >= 1, nonzero sigmas
    for sigma, row in zip(noise.sigma, first):
        per_r = (row,) * n if sigma == 0 else (row, *next(later, ()))
        points.append(SweepPoint(sigma, dict(zip(names, map(np.array, zip(*per_r))))))
    return points, first
