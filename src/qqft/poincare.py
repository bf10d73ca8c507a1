"""1+1D spacetime crystal with a discrete Lorentz symmetry.

The integer boost L = [[gamma, 1], [gamma^2 - 1, gamma]] (det L = 1, integer
gamma >= 2) acts on spacetime points (m, n) modulo N and partitions the
N x N lattice into equivalence classes on which the stroboscopic propagator
must be constant.  A compatible dispersion assigns each momentum m an integer
j(m) with E_{k_m} = 2 pi j(m) / (N tau); Lorentz invariance is the statement
that the graph {(m, j(m))} is closed, as a subset of Z_N x Z_N, under the
same integer map.  Linear graphs j = c m work exactly when
c^2 = gamma^2 - 1 (mod N), which is what singles out sizes like N = 33 for
gamma = 2.

The propagator matrix G[n, m] = -i [U(m tau)]_{n, 0} is built from
U(m tau) = V^dag D^m V with V the compiled Fourier transform and
D = diag(exp(-i E_k tau)); gate noise enters through independent streams for
the forward and inverse sequences.  Symmetry breaking is quantified by the
class-variance statistic `s_lorentz` and the clean-vs-noisy RMS `s_total`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

from . import engine
from .engine import NoiseModel, _map_ordered, _noise_sweep

#: the exact-cover search for orbit-cover dispersions stops at this many
_MAX_ORBIT_COVERS = 64


class DispersionError(ValueError):
    """No nontrivial Lorentz-compatible dispersion exists for (N, gamma)."""


def lorentz_map(m: int, n: int, gamma: int, N: int):
    """One boost step: (m, n) -> (gamma m + n, (gamma^2 - 1) m + gamma n) mod N."""
    return (gamma * m + n) % N, ((gamma * gamma - 1) * m + gamma * n) % N


@dataclass(frozen=True)
class LorentzLattice:
    """Equivalence-class partition of the spacetime lattice under the boost."""

    n_sites: int
    gamma: int
    classes: tuple            # tuple of tuples of (m, n) pairs
    class_of: np.ndarray      # [m, n] -> class index

    @property
    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.classes])


def equivalence_classes(N: int, gamma: int) -> LorentzLattice:
    """Orbits of the boost on {(m, n)}; their sizes always sum to N^2."""
    if gamma < 2:
        raise ValueError("gamma must be an integer >= 2")
    class_of = np.full((N, N), -1, dtype=int)
    classes = []
    for m0 in range(N):
        for n0 in range(N):
            if class_of[m0, n0] >= 0:
                continue
            index = len(classes)
            orbit = []
            m, n = m0, n0
            while class_of[m, n] < 0:
                class_of[m, n] = index
                orbit.append((m, n))
                m, n = lorentz_map(m, n, gamma, N)
            classes.append(tuple(orbit))
    return LorentzLattice(n_sites=N, gamma=gamma, classes=tuple(classes),
                          class_of=class_of)


@dataclass(frozen=True)
class Dispersion:
    """Integer dispersion table: E_{k_m} = 2 pi j(m) / N, in units of
    1 / tau with the period tau = 1."""

    n_sites: int
    gamma: int
    j_table: tuple


def graph_is_invariant(j_table: Sequence[int], N: int, gamma: int) -> bool:
    """Whether {(m, j(m))} is closed under the boost acting on (m, j)."""
    graph = {(m, j_table[m] % N) for m in range(N)}
    return all(lorentz_map(m, j, gamma, N) in graph for m, j in graph)


def _linear_dispersions(N: int, gamma: int) -> list:
    target = (gamma * gamma - 1) % N
    return [tuple((c * m) % N for m in range(N))
            for c in range(1, N) if (c * c) % N == target]


def _orbit_cover_dispersions(N: int, gamma: int) -> list:
    """Exact-cover search: unions of boost orbits in (m, j) space whose
    m-projection hits every momentum exactly once; at most
    `_MAX_ORBIT_COVERS` of them."""
    lattice = equivalence_classes(N, gamma)
    usable = [orbit for orbit in lattice.classes
              if len({m for m, _ in orbit}) == len(orbit)]
    by_m = [[] for _ in range(N)]
    for i, orbit in enumerate(usable):
        for m, _ in orbit:
            by_m[m].append(i)
    solutions = []

    def backtrack(covered, chosen):
        if len(solutions) >= _MAX_ORBIT_COVERS:
            return
        m = next((m for m in range(N) if m not in covered), N)
        if m == N:  # the chosen orbits hold each m once: j by m
            solutions.append(tuple(j for _, j in sorted(
                pair for i in chosen for pair in usable[i])))
            return
        for i in by_m[m]:
            ms = {mm for mm, _ in usable[i]}
            if ms & covered:
                continue
            backtrack(covered | ms, chosen + [i])

    backtrack(frozenset(), [])
    return solutions


def build_dispersion(N: int, gamma: int) -> Dispersion:
    """Select a Lorentz-compatible dispersion.

    Linear candidates j = c m with c^2 = gamma^2 - 1 (mod N) are searched
    first, then a bounded exact-cover over boost orbits.  The flat table
    j = 0 (a static particle, which picks a rest frame) is rejected; odd
    tables j(-m) = -j(m) are preferred so the noiseless propagator is purely
    imaginary, and ties break to the lexicographically smallest table.
    """
    candidates = _linear_dispersions(N, gamma)
    if not candidates:
        candidates = _orbit_cover_dispersions(N, gamma)
    candidates = [t for t in candidates
                  if any(t) and graph_is_invariant(t, N, gamma)]
    if not candidates:
        sizes = sorted(equivalence_classes(N, gamma).sizes.tolist())
        raise DispersionError(
            f"no nontrivial Lorentz-compatible dispersion for N={N}, "
            f"gamma={gamma}; boost orbit sizes: {sizes}"
        )
    odd = [t for t in candidates
           if all(t[(-m) % N] == (-t[m]) % N for m in range(N))]
    pool = odd or candidates
    return Dispersion(n_sites=N, gamma=gamma, j_table=min(pool))


@dataclass
class GreensResult:
    """Stroboscopic propagator G[n, m] and hopping probabilities P[n1, m, n]."""

    matrix: np.ndarray
    p_tensor: np.ndarray


def greens_function(disp: Dispersion, block=engine.NOISELESS):
    """Retarded propagator G[n, m] = -i [U(m tau)]_{n, 0} on the spacetime grid,
    one per member of the noise block `block` (see `engine`), in order.

    U(m tau) = V^dag D^m V; m = 0 applies no gates, so that column is exactly
    a delta.  P[n1, m, n] is the probability of hopping from n1 to n1 + n in
    m periods; unitarity makes every (n1, m) slice sum to one even with
    noise, which reaches the diagonal step too for a model whose `diagonal`
    is set.  The Fourier pairs of every member, such as a block of
    realizations at every sigma, compose in one pass per direction.  The
    result is an iterator of GreensResults, each built when it is reached,
    so that one propagator at a time is in memory; the default `NOISELESS`
    gives the clean one.
    """
    (V_f,), (V_i,) = engine.fourier_pair(disp.n_sites, block, 1)
    return map(_greens_one, repeat(disp), V_f, V_i,
               engine.diagonal_scale(block).tolist())


def _greens_one(disp: Dispersion, V_f: np.ndarray, V_i: np.ndarray,
                scale: float) -> GreensResult:
    """G and P from one Fourier pair; `scale` multiplies the diagonal
    generator."""
    N = disp.n_sites
    j = np.array(disp.j_table)
    m = np.arange(N)[:, None]
    if scale == 1.0:
        phases = np.exp(-2j * np.pi * ((j * m) % N) / N)
    else:
        phases = np.exp(-2j * np.pi * scale * j * m / N)
    U = V_i @ (phases[:, :, None] * V_f)      # U[m] = U(m tau)
    U[0] = np.eye(N)
    G = -1j * U[:, :, 0].T
    P = (np.abs(U) ** 2).reshape(-1)[_p_index(N)]
    return GreensResult(matrix=G, p_tensor=P)


@lru_cache(maxsize=8)
def _p_index(N: int) -> np.ndarray:
    """Flat indices into U[m, row, col] of P[n1, m, n] =
    |U(m tau)[(n1 + n) mod N, n1]|^2."""
    n1, m, n = np.ogrid[:N, :N, :N]
    return (m * N + (n1 + n) % N) * N + n1


def s_lorentz(P: np.ndarray, lattice: LorentzLattice) -> float:
    """Averaged class standard deviation of the hopping probabilities.

    sqrt( (1/N^3) sum_alpha sum_{n1} sum_{(m,n) in C_alpha}
          (P[n1, m, n] - Pbar_alpha)^2 )
    with Pbar_alpha the class- and n1-averaged probability; zero exactly when
    the Lorentz symmetry is unbroken.
    """
    cls = lattice.class_of
    counts = lattice.sizes
    class_mean = np.bincount(
        cls.ravel(), weights=P.mean(axis=0).ravel(), minlength=len(counts)
    ) / counts
    dev = P - class_mean[cls][None, :, :]
    return float(np.sqrt(np.mean(dev ** 2)))


def s_total(P_noisy: np.ndarray, P_clean: np.ndarray) -> float:
    """RMS distance to the clean probabilities (Lorentz plus translation
    symmetry breaking)."""
    if P_noisy.shape != P_clean.shape:
        raise ValueError("probability tensors differ in shape")
    return float(np.sqrt(np.mean((P_noisy - P_clean) ** 2)))


def noise_sweep_symmetry(disp: Dispersion, lattice: LorentzLattice,
                         noise: NoiseModel, n_realizations: int,
                         workers: int = 1) -> tuple:
    """S_L and S_P versus noise strength, independent of the worker count:
    (points, greens), one `engine.SweepPoint` per sigma of the column `noise`
    (see `engine._noise_sweep`) with samples "sl" and "sp", and {sigma: G}
    of realization 0, which is `noise` itself.

    The clean reference of `s_total` is the noiseless propagator, built once
    per call on one BLAS thread like every task; it is bit for bit the zero
    member of any column.
    """
    P_clean = _map_ordered(lambda _: next(greens_function(disp)).p_tensor, 1, 1)[0]

    def measure(block):  # map lets each G go before the next is built
        # only realization 0, stream 0, keeps its G
        keep = [c.stream_id == 0 for c in block for _ in c.sigma]
        return list(map(lambda g, k: (s_lorentz(g.p_tensor, lattice), s_total(
            g.p_tensor, P_clean), g.matrix if k else None),
            greens_function(disp, block), keep))

    points, first = _noise_sweep(measure, ("sl", "sp"), noise, n_realizations,
                                 workers)
    return points, {sigma: row[2] for sigma, row in zip(noise.sigma, first)}
