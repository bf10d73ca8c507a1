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
D = diag(exp(-i E_k tau)), whose powers are the dispersion's phase table;
gate noise enters through independent streams for the forward and inverse
sequences.  D^m is one phase per distinct value of the dispersion
(`Dispersion.levels`), so every U(m tau) is a sum over those values, one
product of the phase table with their stack of V^dag V blocks.  The
hopping probabilities are |U|^2 = Re(U)^2 + Im(U)^2, two squares and a sum
with no square root in between.  Symmetry breaking is quantified by the
class-variance statistic `s_lorentz`, over the boost lattice that
`build_dispersion` builds once and keeps as `Dispersion.lattice`, and by
the clean-vs-noisy RMS `s_total`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat

import numpy as np

from . import circuit, engine
from .engine import NoiseModel, _map_ordered, _noise_sweep

#: the exact-cover search for orbit-cover dispersions stops at this many
#: covers, or after this many search nodes (up to about 20 microseconds
#: each at N = 256)
_MAX_ORBIT_COVERS = 64
_MAX_ORBIT_NODES = 20_000


class DispersionError(ValueError):
    """No nontrivial Lorentz-compatible dispersion exists for (N, gamma)."""


def lorentz_map(m: int, n: int, gamma: int, N: int):
    """One boost step: (m, n) -> (gamma m + n, (gamma^2 - 1) m + gamma n) mod N."""
    return (gamma * m + n) % N, ((gamma * gamma - 1) * m + gamma * n) % N


@dataclass(frozen=True)
class LorentzLattice:
    """Equivalence-class partition of the spacetime lattice under the boost;
    equality and hash read the orbits, not their index array."""

    classes: tuple            # tuple of tuples of (m, n) pairs
    class_of: np.ndarray = field(compare=False)  # [m, n] -> class index

    @cached_property  # the lattice is frozen: computed once, on first use
    def sizes(self) -> np.ndarray:
        return np.array([len(c) for c in self.classes])


def equivalence_classes(N: int, gamma: int) -> LorentzLattice:
    """Orbits of the boost on {(m, n)}; their sizes always sum to N^2."""
    N, gamma = circuit._integer(N, "N", 1), circuit._integer(gamma, "gamma", 2)
    # the walk runs on Python ints and a flat list, owner[m * N + n] the
    # class of (m, n), with the steps of `lorentz_map` written out
    owner, classes, boost = [-1] * (N * N), [], gamma * gamma - 1
    for start in range(N * N):
        if owner[start] >= 0:
            continue
        orbit = []
        m, n = divmod(start, N)
        while owner[m * N + n] < 0:
            owner[m * N + n] = len(classes)
            orbit.append((m, n))
            m, n = (gamma * m + n) % N, (boost * m + gamma * n) % N
        classes.append(tuple(orbit))
    return LorentzLattice(classes=tuple(classes),
                          class_of=np.array(owner).reshape(N, N))


@dataclass(frozen=True)
class Dispersion:
    """Integer dispersion table: E_{k_m} = 2 pi j(m) / N, in units of
    1 / tau with the period tau = 1, and its boost lattice (not compared)."""

    n_sites: int
    gamma: int
    j_table: tuple
    lattice: LorentzLattice = field(compare=False, repr=False)

    @cached_property  # frozen: computed once, on first use
    def levels(self) -> tuple:
        """(values, groups): the distinct j of the table, ascending, and for
        each the momenta k with j(k) equal to it."""
        j = np.array(self.j_table)
        values = np.array(sorted(set(self.j_table)))
        return values, tuple(np.flatnonzero(j == v) for v in values)

    def phases(self, scale: float = 1.0) -> np.ndarray:
        """[m, i] -> exp(-i scale E m tau) on the i-th distinct value of
        `levels`; exact at scale 1 (j m mod N)."""
        N = self.n_sites
        j = self.levels[0]
        m = np.arange(N)[:, None]
        if scale == 1.0:
            return np.exp(-2j * np.pi * ((j * m) % N) / N)
        return np.exp(-2j * np.pi * scale * j * m / N)


def _linear_dispersions(N: int, gamma: int) -> list:
    target = (gamma * gamma - 1) % N
    return [tuple((c * m) % N for m in range(N))
            for c in range(1, N) if (c * c) % N == target]


def _orbit_cover_dispersions(lattice: LorentzLattice) -> list:
    """Exact-cover search: unions of boost orbits of `lattice`, read in
    (m, j) space, whose m-projection hits every momentum exactly once; at
    most `_MAX_ORBIT_COVERS` of them.  Sets of momenta are bitmasks, and
    each step covers the lowest momentum left.  A search that visits
    `_MAX_ORBIT_NODES` nodes stops there, and raises DispersionError if
    it has found no nontrivial cover by then."""
    N = len(lattice.class_of)
    usable = [orbit for orbit in lattice.classes
              if len({m for m, _ in orbit}) == len(orbit)]
    moms = [sum(1 << m for m, _ in orbit) for orbit in usable]
    by_m = [[i for i, ms in enumerate(moms) if ms >> m & 1] for m in range(N)]
    solutions, nodes, every_m = [], 0, (1 << N) - 1

    def backtrack(covered, chosen):
        nonlocal nodes
        nodes += 1
        if len(solutions) >= _MAX_ORBIT_COVERS or nodes > _MAX_ORBIT_NODES:
            return
        if covered == every_m:  # the chosen orbits hold each m once: j by m
            solutions.append(tuple(j for _, j in sorted(
                pair for i in chosen for pair in usable[i])))
            return
        m = (~covered & (covered + 1)).bit_length() - 1  # lowest zero bit
        for i in by_m[m]:
            if not moms[i] & covered:
                backtrack(covered | moms[i], chosen + [i])

    backtrack(0, [])
    if nodes > _MAX_ORBIT_NODES and not any(map(any, solutions)):
        raise DispersionError(
            f"no nontrivial Lorentz-compatible dispersion found for N={N}: the "
            f"orbit-cover search stopped after {_MAX_ORBIT_NODES} nodes")
    return solutions


def build_dispersion(N: int, gamma: int) -> Dispersion:
    """Select a Lorentz-compatible dispersion.

    Linear candidates j = c m with c^2 = gamma^2 - 1 (mod N) are searched
    first, then a bounded exact-cover over the orbits of the boost lattice,
    which is built once and kept as the result's `lattice`.  Both are
    boost-closed: the boost maps (m, c m) to ((gamma + c) m, c (gamma + c) m)
    and a cover is a union of orbits.  The flat table j = 0 (a static
    particle, which picks a rest frame) is rejected; odd tables
    j(-m) = -j(m) are preferred so the noiseless propagator is purely
    imaginary, and ties break to the lexicographically smallest table.
    N is at most 256, since a propagator takes N^3 entries, at most those
    of an `engine.MAX_DIM` evolution.
    """
    if circuit._integer(N, "N", 1) ** 3 > engine.MAX_DIM ** 2:
        raise ValueError(f"N={N} gives {N}^3 propagator entries, which "
                         f"exceeds {engine.MAX_DIM}^2")
    lattice = equivalence_classes(N, gamma)
    candidates = [t for t in (_linear_dispersions(N, gamma)
                              or _orbit_cover_dispersions(lattice)) if any(t)]
    if not candidates:
        raise DispersionError(
            f"no nontrivial Lorentz-compatible dispersion for N={N}, gamma="
            f"{gamma}; boost orbit sizes (counts): " + ", ".join(
                f"{size} ({count})" for size, count in
                zip(*np.unique(lattice.sizes, return_counts=True))))
    odd = [t for t in candidates
           if all(t[(-m) % N] == (-t[m]) % N for m in range(N))]
    pool = odd or candidates
    return Dispersion(N, gamma, min(pool), lattice)


@dataclass
class GreensResult:
    """Stroboscopic propagator G[n, m] and hopping probabilities P[n1, m, n]."""

    matrix: np.ndarray
    p_tensor: np.ndarray


def greens_function(disp: Dispersion, block=engine.NOISELESS):
    """Retarded propagator G[n, m] = -i [U(m tau)]_{n, 0} on the spacetime grid,
    one per member of the noise block `block` (see `engine`), in order.

    U(m tau) = V^dag D^m V; m = 0 applies no gates, so that column is exactly
    a delta.  D^m takes one phase per distinct value j of the dispersion,
    so U(m tau) = sum_j D^m_j A_j with A_j = V^dag[:, k in j] V[k in j, :]:
    one product of the [m, j] phase table with the stack of A_j, 11 values
    at (N, gamma) = (33, 2).  P[n1, m, n] is the probability of hopping
    from n1 to n1 + n in m periods; unitarity makes every (n1, m) slice
    sum to one even with noise, which reaches the diagonal step too for a
    model whose `diagonal` is set.  The Fourier pairs of every member, such
    as a block of realizations at every sigma, compose in one pass per
    direction, and every member with a noiseless diagonal step shares one
    exact phase table.  The result is an iterator of GreensResults, each
    built when it is reached, so that one propagator at a time is in
    memory; the default `NOISELESS` gives the clean one.  The Fourier pair
    sets the malloc policy of `engine._keep_freed_memory`, as a sweep does.
    """
    (V_f,), (V_i,) = engine.fourier_pair(disp.n_sites, block, 1)
    exact = disp.phases()
    tables = (exact if scale == 1.0 else disp.phases(scale)
              for scale in engine.diagonal_scale(block).tolist())
    return map(_greens_one, tables, V_f, V_i, repeat(disp.levels[1]))


def _greens_one(phases: np.ndarray, V_f: np.ndarray, V_i: np.ndarray,
                groups: tuple) -> GreensResult:
    """G and P from one Fourier pair and the phase table [m, i] of D^m on
    the momenta groups[i], which share one phase; P = Re(U)^2 + Im(U)^2."""
    N = len(phases)
    # momenta in group order, so that each A_i multiplies contiguous slices
    perm = np.concatenate(groups)
    V_i, V_f = V_i[:, perm], V_f[perm]
    bounds = np.cumsum([0] + [len(k) for k in groups]).tolist()
    # U[m] = U(m tau) = sum_i phases[m, i] A_i, in one expression so that
    # the stack of A_i is freed before P is built
    U = (phases @ np.stack([V_i[:, a:b] @ V_f[a:b] for a, b in zip(
        bounds, bounds[1:])]).reshape(len(groups), -1)).reshape(N, N, N)
    U[0] = np.eye(N)
    G = -1j * U[:, :, 0].T
    P = np.square(U.real)
    P += np.square(U.imag)
    return GreensResult(matrix=G, p_tensor=P.reshape(-1)[_p_index(N)])


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
    return float(np.sqrt(np.mean(np.square(dev, out=dev))))


def s_total(P_noisy: np.ndarray, P_clean: np.ndarray) -> float:
    """RMS distance to the clean probabilities (Lorentz plus translation
    symmetry breaking)."""
    if P_noisy.shape != P_clean.shape:
        raise ValueError("probability tensors differ in shape")
    dev = P_noisy - P_clean
    return float(np.sqrt(np.mean(np.square(dev, out=dev))))


def noise_sweep_symmetry(disp: Dispersion, noise: NoiseModel,
                         n_realizations: int, workers: int = 1) -> tuple:
    """S_L and S_P versus noise strength, independent of the worker count:
    (points, greens), one `engine.SweepPoint` per sigma of the column `noise`
    (see `engine._noise_sweep`) with samples "sl" and "sp", S_L taken over
    the classes of `disp.lattice`, and {sigma: G} of realization 0, which is
    `noise` itself.

    The clean reference of `s_total` is the noiseless propagator, built once
    per call on one BLAS thread like every task; it is bit for bit the zero
    member of any column.
    """
    n_realizations = circuit._integer(n_realizations, "n_realizations", 1)
    P_clean = _map_ordered(lambda _: next(greens_function(disp)).p_tensor, 1, 1)[0]

    def measure(block):  # map lets each G go before the next is built
        # only realization 0, stream 0, keeps its G
        keep = [c.stream_id == 0 for c in block for _ in c.sigma]
        return list(map(lambda g, k: (s_lorentz(g.p_tensor, disp.lattice), s_total(
            g.p_tensor, P_clean), g.matrix if k else None),
            greens_function(disp, block), keep))

    points, first = _noise_sweep(measure, ("sl", "sp"), noise, n_realizations,
                                 workers)
    return points, {sigma: row[2] for sigma, row in zip(noise.sigma, first)}
