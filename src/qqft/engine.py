"""Multiplicative Gaussian gate noise, and the sweeps that draw it.

The noise model scales each Hamiltonian step of a compiled sequence,
H[s] -> (1 + delta_s) H[s], with delta_s drawn from a Gaussian of standard
deviation sigma.  This module only draws: it turns a block of noise models
into a table of draws, one row per step and one column per member, and
`circuit._compose` composes the sequence under that table.  Draws come from
a counter-based stream keyed on (seed, stream_id, step): a realization is
reproducible bit-exactly regardless of evaluation order or worker count.

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
compose in one pass of the batch-last wave kernel of `circuit`, whose
arithmetic is elementwise, so each member is bit-identical to composing it
alone, whatever the block.  `_noise_sweep` hands its
measurement fixed blocks of `_BLOCK` consecutive realizations.

Every sweep runs its tasks through `_map_ordered`, which pins each OpenBLAS
to one thread and sets glibc's malloc policy once per process
(`_keep_freed_memory`): arrays up to 32 MiB come from the heap, and the
heap keeps what is freed, so that the next block reuses the pages of the
last one instead of faulting them in again.  `fourier_pair`, through which
every evolution and propagator is composed, sets the same policy, so that
a library caller that runs no sweep takes it too.
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

from . import circuit

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
        for name in ("seed", "stream_id"):  # as Python ints, which _mix64 needs
            object.__setattr__(self, name, circuit._integer(getattr(self, name), name))
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


def apply_noisy_sequence(seq: circuit.CircuitSequence, block=NOISELESS,
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
    bit-identical to composing it alone (see `circuit._compose`).
    """
    steps = np.arange(seq.depth)
    # draws[step, member]: one delta call per model; an empty block has none
    draws = np.concatenate([np.empty((seq.depth, 0))] + [
        m.delta(steps).reshape(np.size(m.sigma), seq.depth).T for m in block],
        axis=1)
    U = circuit._compose(seq, draws, invert)
    return np.ascontiguousarray(np.moveaxis(U, -1, 0))


def fourier_pair(N: int, block, d: int) -> tuple:
    """(V_f, V_i): the compiled N-site Fourier transform and its inverse
    along axes 0..d-1, each of shape (d, members, N, N), one per axis and
    member of the noise block.

    Each direction composes every axis of every member in one pass, with
    its own draws: axis k takes every model of the block to the k entries
    of the salt table.  The call sets the malloc policy of
    `_keep_freed_memory`, as a sweep does.
    """
    _keep_freed_memory()
    seq = circuit.compile_for_size(N)
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


def _pin_blas() -> None:
    """Set every OpenBLAS of this process to one thread, each once and for
    good: after a fork, any setter call, even one that sets 1, restarts the
    helper threads that the fork shut down, and they spin for tens of ms.
    A library that maps after an earlier sweep, such as SciPy's when a
    flat-band model follows a Poincare sweep, is pinned by the next call.
    A new library comes with the modules that load it, so /proc/self/maps
    is read only when sys.modules has changed size since the last read."""
    _pin_mapped(len(sys.modules))


#: names of the OpenBLAS libraries pinned in this process; a forked worker
#: inherits it
_PINNED = set()


@lru_cache(maxsize=None)
def _pin_mapped(modules: int) -> None:
    # `modules`, the size of sys.modules, only keys the cache: one scan each
    for lib in _openblas_libs():
        set_local = getattr(lib, "openblas_set_num_threads_local", None)
        if set_local is not None and lib._name not in _PINNED:
            _PINNED.add(lib._name)
            set_local(1)
    if not _PINNED:
        _warn_unpinned()


@lru_cache(maxsize=None)
def _warn_unpinned() -> None:  # once per process
    print("qqft: no OpenBLAS exports openblas_set_num_threads_local; "
          "BLAS threads are not pinned", file=sys.stderr)


#: glibc's mallopt parameters, and the values `_keep_freed_memory` sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


@lru_cache(maxsize=None)
def _keep_freed_memory() -> bool:
    """Keep the memory of freed arrays in this process; whether glibc took
    the policy.  By default glibc serves a buffer above 128 KiB-1 MiB by a
    fresh mmap and trims the freed top of its heap, so each block of a
    sweep faults its temporaries in again: about 2000 minor page faults per
    Poincare sweep (N = 33, ten realizations) and 5700 per flat-band gap
    sweep.  Buffers up to `_MMAP_THRESHOLD` (32 MiB, glibc's ceiling, above
    every N = 33 and dim-512 array) now come from the heap, and the heap
    keeps up to `_TRIM_THRESHOLD` of freed memory; the same sweeps then
    take a handful of faults, and peak RSS grows by about 0.3 MB (0.7 %)
    on a 33-site CLI call and not measurably on the flat band.  Larger
    arrays, up to MAX_DIM, still map and unmap.  Nothing happens off Linux
    or without mallopt; a forked worker inherits the policy."""
    if not sys.platform.startswith("linux"):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # mallopt returns 1 on success and 0 on error
    return all(mallopt(param, value) == 1
               for param, value in ((_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                                    (_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)))


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
    thread, so results never depend on `workers`: each call first pins
    every OpenBLAS mapped so far to one thread for good (`_pin_blas`), and
    keeps freed memory in the process (`_keep_freed_memory`).  On Linux,
    `workers > 1` runs the calls in forked processes, which inherit `fn`,
    the pin and the malloc policy and die with this one; all are joined
    before the results return.  Elsewhere calls run serially."""
    count = circuit._integer(count, "count", 1)
    _pin_blas()
    _keep_freed_memory()
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
    n = circuit._integer(n, "n", 1)
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
