"""Compile the discrete Fourier transform into nearest-neighbor gate sequences.

Two compilation routes are provided:

* :func:`build_radix2_qqft` -- an analytic radix-2 factorization for
  ``N = 2**n``.  The sequence consists of parallel layers of neighboring swap
  gates interleaved with layers of pairwise mixing gates; the number of layers
  (each one strictly-local Hamiltonian step) is ``(n + 2) 2**(n-1) - n - 1``,
  i.e. O(N log N).
* :func:`build_generic_qqft` -- a Givens-style elimination that works for any
  ``N >= 2`` with depth bounded by ``2 N**2``.

Both routes compose, first gate applied first, to the DFT matrix

    Omega[k, j] = omega**(k j) / sqrt(N),   omega = exp(2 pi i / N),

exactly (up to floating-point roundoff), with indices 0..N-1.

Every product of gates, exact or noisy, runs through one function,
`_compose`: a sequence and a table of per-step draws delta in, one product
per column of draws out, each gate of step s scaled to
exp(-i (1 + delta_s) H) through its principal-branch generator H, so every
noisy gate stays exactly unitary.  Each direction of a sequence, forward
or inverse, is one cached `_wave_plan`, which holds every gate's step,
exact block and generator in the order the kernel takes them.  The
generators of all two-site gates come from one closed form in numpy
(`_pair_spectra`), with no LAPACK call, so composing loads no SciPy.  A
draw of exactly 0 selects its gate's exact block or phase, so
`sequence_to_unitary`, the table of one zero column, takes the same path
as a noisy product.

`_compose` runs one kernel, `_apply_waves`, on fused blocks: each gate
takes its own draw, exact or noisy, and then every single-site phase folds
into the 2 x 2 block of the next two-site gate on its site (the last one
when none follows).  Two-site blocks on disjoint sites form a wave, and
each wave updates a batch-last array U[row, col, member] that holds many
products at once.  A block [[a, b], [c, d]] writes a r0 + b r1 and
c r0 + d r1 over its two rows, with one coefficient per member: the kernel
gathers rows r0 and r1 of all of a wave's blocks at once, forms the two
sums in place on them, and scatters both back.  The generic N = 33
sequence composes as 528 blocks in 63 waves, not 1040 gates in 95.  Waves
are a compute schedule, not Hamiltonian steps: the steps, and the noise
draws, are the layer tags, so a packing of gates into physical steps must
come from the tags.

The kernel runs elementwise ufuncs only, no BLAS, so a member's bits do
not depend on how many members share the pass or where it sits among
them.  A block entry is the left operand of each of its products
(`a * r0`, never `r0 * a`): numpy's SIMD complex multiply fuses a
multiply-add, so the two orders can differ in the last bit.  For the same
reason no product writes over one of its operands where it could run on
a single element (see `_fold`).

A sequence can be serialized to a versioned JSON document (schema
``qqft-seq/1``) for interchange with the command-line tools.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

SEQUENCE_SCHEMA = "qqft-seq/1"

SWAP = "swap"
MIX = "mix"
PHASE = "phase"

_SWAP_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: angles below this are dropped when a 2x2 unitary is split into gates
_ANGLE_TOL = 1e-12


def _integer(value, name: str, least: int | None = None) -> int:
    """`value` as a Python int, which json can write; ValueError for a bool,
    for anything that is not an int or a numpy integer, and for a value
    below `least`."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class GateSpec:
    """A strictly-local gate.

    kind      one of "swap" (exact permutation of sites (site, site+1)),
              "mix" (2x2 unitary on sites (site, site+1)) or
              "phase" (single-site phase on `site`).
    site      left site index the gate acts on.
    theta     mixing angle in radians (mix gates only).
    phi       relative-phase angle in radians (mix gates only).
    lam       phase angle in radians (phase gates only).
    layer     index (>= 0) of the parallelizable Hamiltonian step this gate
              belongs to; gates sharing a layer act on disjoint sites and
              are applied simultaneously.
    """

    kind: str
    site: int
    theta: float = 0.0
    phi: float = 0.0
    lam: float = 0.0
    layer: int = 0

    def __post_init__(self):
        if self.kind not in (SWAP, MIX, PHASE):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "site", _integer(self.site, "gate site"))
        object.__setattr__(self, "layer", _integer(self.layer, "gate layer", 0))
        for name in ("theta", "phi", "lam"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"gate {name} must be a finite real, got {value!r}")
            object.__setattr__(self, name, float(value))  # as json can write

    def span(self) -> int:
        """Number of sites the gate touches (1 or 2)."""
        return 1 if self.kind == PHASE else 2


def gate_matrix(gate: GateSpec) -> np.ndarray:
    """Dense matrix of the gate on its own 1- or 2-site block.

    Mix(theta, phi) = [[cos t,  e^{i phi} sin t],
                       [sin t, -e^{i phi} cos t]]
    which covers the pairwise mixing blocks of the radix-2 route
    (theta = pi/4) as well as plain rotations (phi = pi).
    """
    if gate.kind == SWAP:
        return _SWAP_MATRIX.copy()
    if gate.kind == MIX:
        c, s = math.cos(gate.theta), math.sin(gate.theta)
        e = complex(math.cos(gate.phi), math.sin(gate.phi))
        return np.array([[c, e * s], [s, -e * c]], dtype=complex)
    return np.array([[complex(math.cos(gate.lam), math.sin(gate.lam))]])


@dataclass(frozen=True)
class CircuitSequence:
    """An ordered gate sequence on `n_sites` sites.

    `gates` are applied first-element-first.  `depth`, derived from the
    gates, is 1 + the largest layer tag: the number of parallelizable
    Hamiltonian steps, which is the quantity the closed-form depth
    expressions refer to; the raw gate count is ``len(gates)``.  Gates
    sharing a layer must act on disjoint sites: the noise model gives each
    layer one draw, as one strictly-local step.
    """

    n_sites: int
    gates: tuple = field(default_factory=tuple)
    depth: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_sites", _integer(self.n_sites, "n_sites", 1))
        occupied = set()
        for g in self.gates:
            if not 0 <= g.site <= self.n_sites - g.span():
                raise ValueError(f"gate {g} does not fit on {self.n_sites} sites")
            for site in range(g.site, g.site + g.span()):
                if (g.layer, site) in occupied:
                    raise ValueError(f"layer {g.layer}: two gates act on site {site}")
                occupied.add((g.layer, site))
        object.__setattr__(self, "depth",
                           1 + max((g.layer for g in self.gates), default=-1))
        # hashed once: the plan cache looks a sequence up on every
        # composition, and hashing all its gates again each time costs about
        # 0.4 ms at N = 33
        object.__setattr__(self, "_hash", hash((self.n_sites, self.gates)))

    def __hash__(self):
        return self._hash


def depth_formula(n: int) -> int:
    """Closed-form Hamiltonian-step count of the radix-2 sequence.

    Evaluates (n + 2) 2**(n-1) - n - 1; the equivalent regrouping
    (2**(n-1) - 1) n + 2**n - 1 is exercised by the tests.
    """
    n = _integer(n, "n", 1)
    return (n + 2) * (1 << (n - 1)) - n - 1


def dft_matrix(N: int) -> np.ndarray:
    """The target unitary: Omega[k, j] = exp(2 pi i k j / N) / sqrt(N)."""
    k = np.arange(N)
    return np.exp(2j * np.pi * np.outer(k, k) / N) / np.sqrt(N)


def _swap_layers(p: int, n: int) -> list:
    """Parallel swap layers realizing the bit-rotation permutation R[p].

    R[p] cyclically rotates the low p+1 bits of the site index
    (k_p <- j_0, k_{i} <- j_{i+1} for i < p) and acts independently on each
    block of 2**(p+1) consecutive sites.  Layer u (u = 1 .. 2**p - 1, applied
    in ascending order) swaps the disjoint neighboring pairs starting at
    positions base+u, base+u+2, ... up to base + 2**(p+1) - 2 - u within every
    block; same-u swaps of all blocks form one Hamiltonian step.
    """
    if not 0 <= p <= n - 1:
        raise ValueError(f"p must lie in [0, {n - 1}]")
    block = 1 << (p + 1)
    return [[s for base in range(0, 1 << n, block)
             for s in range(base + u, base + block - 1 - u, 2)]
            for u in range(1, 1 << p)]


def _mix_phase_exponent(r: int, q: int, n: int) -> int:
    # relative-phase exponent of the stage-q mixing block on pair r, built
    # from bits 0..q-1 of r: sum_t 2**(n-2-q+t) * bit_{t-1}(r)
    return sum((1 << (n - 2 - q + t)) * ((r >> (t - 1)) & 1)
               for t in range(1, q + 1))


@lru_cache(maxsize=None)
def build_radix2_qqft(n: int) -> CircuitSequence:
    """Compile the N = 2**n Fourier transform into neighbor gates.

    The sequence factorizes the DFT into n stages.  Stage q first undoes the
    full bit rotation (the reversed swap layers of R[n-1]), then applies one
    layer of pairwise mixing gates on pairs (2r, 2r+1) whose relative phase
    2 pi m / N uses bits 0..q-1 of the pair index r, then re-sorts with the
    swap layers of R[q].  The composition equals `dft_matrix(N)` exactly and
    the number of layers equals `depth_formula(n)`.
    """
    n = _integer(n, "n", 1)
    N = 1 << n
    gates = []
    layer = 0
    undo_rotation = _swap_layers(n - 1, n)
    for q in range(n):
        for sites in reversed(undo_rotation):
            gates.extend(GateSpec(SWAP, s, layer=layer) for s in sites)
            layer += 1
        for r in range(N // 2):
            ph = _mix_phase_exponent(r, q, n)
            gates.append(
                GateSpec(MIX, 2 * r, theta=np.pi / 4,
                         phi=2 * np.pi * ph / N, layer=layer)
            )
        layer += 1
        for sites in _swap_layers(q, n):
            gates.extend(GateSpec(SWAP, s, layer=layer) for s in sites)
            layer += 1
    return CircuitSequence(n_sites=N, gates=tuple(gates))


def _two_site_factor(W: np.ndarray) -> list:
    """Split a 2x2 unitary into [Mix, Phase, Phase] gates (application order).

    Any 2x2 unitary factors as diag(e^{i a}, e^{i b}) @ Mix(theta, phi); the
    diagonal is emitted as trailing single-site phases.  Angles below
    `_ANGLE_TOL` are dropped.
    """
    a, b = abs(W[0, 0]), abs(W[1, 0])
    theta = math.atan2(b, a)
    if b < _ANGLE_TOL:  # diagonal block: Mix(0, 0) = diag(1, -1)
        parts = [(MIX, theta, 0.0)]
        top, bot = np.angle(W[0, 0]), np.angle(-W[1, 1])
    elif a < _ANGLE_TOL:  # antidiagonal block: Mix(pi/2, phi) = [[0, e^{i phi}], [1, 0]]
        parts = [(MIX, theta, float(np.angle(W[0, 1])))]
        top, bot = 0.0, np.angle(W[1, 0])
    else:
        top = np.angle(W[0, 0])
        bot = np.angle(W[1, 0])
        parts = [(MIX, theta, float(np.angle(W[0, 1]) - top))]
    if abs(top) > _ANGLE_TOL:
        parts.append((PHASE, 0, float(top)))
    if abs(bot) > _ANGLE_TOL:
        parts.append((PHASE, 1, float(bot)))
    return parts


@lru_cache(maxsize=None)
def build_generic_qqft(N: int) -> CircuitSequence:
    """Compile the N-point Fourier transform for arbitrary N >= 2.

    Eliminates the sub-diagonal of the DFT matrix column by column with
    neighbor-row Givens rotations, leaving a diagonal of unit-modulus phases;
    the sequence is the reversed adjoints of those rotations (each split into
    a mixing gate plus single-site phases) preceded by the diagonal phases.
    Every gate is its own Hamiltonian step, and the depth is bounded by
    2 N**2 with one fixed constant across sizes.
    """
    N = _integer(N, "N", 2)
    U = dft_matrix(N)
    rotations = []
    for col in range(N - 1):
        for row in range(N - 1, col, -1):
            a, b = U[row - 1, col], U[row, col]
            if abs(b) < 1e-14:
                continue
            r = math.hypot(abs(a), abs(b))
            G = np.array([[np.conj(a), np.conj(b)], [-b, a]]) / r
            U[row - 1: row + 1, :] = G @ U[row - 1: row + 1, :]
            rotations.append((row - 1, G))
    gates = []
    layer = 0
    for j in range(N):
        lam = float(np.angle(U[j, j]))
        if abs(lam) > 1e-14:
            gates.append(GateSpec(PHASE, j, lam=lam, layer=layer))
            layer += 1
    for j, G in reversed(rotations):
        for kind, x, y in _two_site_factor(G.conj().T):
            gates.append(GateSpec(MIX, j, theta=x, phi=y, layer=layer)
                         if kind == MIX else
                         GateSpec(PHASE, j + x, lam=y, layer=layer))
            layer += 1
    return CircuitSequence(n_sites=N, gates=tuple(gates))


def compile_for_size(N: int) -> CircuitSequence:
    """The N-site Fourier sequence: radix-2 when N is a power of two,
    the generic route otherwise."""
    n = N.bit_length() - 1
    if 1 << n == N:
        return build_radix2_qqft(n)
    return build_generic_qqft(N)


class _WavePlan(NamedTuple):
    """One direction of a sequence as fused two-site blocks in waves, with
    every datum a composition needs, all in plan order.

    `pair` indexes the two-site gates of `seq.gates`, wave by wave and in
    application order within a wave: wave w covers `pair[pr]` on row pairs
    `rows` (shape (k, 2)), for `(pr, rows) = waves[w]`.  `phase` indexes
    the single-site gates.  `blocks` and `factors` are those gates' exact
    2 x 2 blocks and phases, `steps` and `phase_steps` their Hamiltonian
    steps, `E` (pairs, 2) and `P` (pairs, 2, 2, 2) the two-site gates'
    principal-branch eigenphases and eigenprojectors (`_pair_spectra`),
    and `phase_E` the phase gates' eigenphases.

    Each phase gate folds into one slot: column `cols[1]` of block
    `cols[0]` when a two-site gate follows it on its site (the next one),
    else row `rows[1]` of block `rows[0]` (the last one before it), else,
    on a site that no two-site gate touches, that site's row of the product
    (`orphans`).  `phase` lists the column slots, the row slots and the
    orphan sites in that order, each slot's phases together in application
    order; `rounds[r]` holds the slots with more than r phases and the
    positions in `phase` of their r-th ones.
    """

    pair: np.ndarray
    phase: np.ndarray
    waves: tuple
    blocks: np.ndarray
    factors: np.ndarray
    steps: np.ndarray
    phase_steps: np.ndarray
    E: np.ndarray
    P: np.ndarray
    phase_E: np.ndarray
    rounds: tuple
    cols: tuple
    rows: tuple
    orphans: np.ndarray


@lru_cache(maxsize=64)
def _wave_plan(seq: CircuitSequence, invert: bool) -> _WavePlan:
    """Fused wave schedule of `seq`, or of its inverse: reversed gate
    order, adjoint gates, the step depth - 1 - s for forward step s, and
    the eigenphases negated and folded, each gate on its own principal
    branch.  This is the one place that knows what the inverse is.

    A two-site gate joins wave 1 + (the latest wave of an earlier two-site
    gate on either of its sites).  Gates in one wave therefore act on
    disjoint sites, and every two-site gate follows each earlier one it
    shares a site with.  A phase gate between two of them on its site
    folds into the later one, a trailing phase into the earlier one, so the
    waves hold two-site blocks only.  Layer tags are untouched: the waves
    are a compute schedule, not a count of Hamiltonian steps.
    """
    gates, n = seq.gates, seq.n_sites
    order = range(len(gates))
    last, held, prev = [-1] * n, [[] for _ in range(n)], [None] * n
    pairs, wave_of, cols = [], [], {}
    for i in (reversed(order) if invert else order):
        g = gates[i]
        if g.kind == PHASE:
            held[g.site].append(i)
            continue
        wave_of.append(1 + max(last[g.site], last[g.site + 1]))
        for side, s in enumerate((g.site, g.site + 1)):
            last[s], prev[s] = wave_of[-1], (len(pairs), side)
            if held[s]:
                cols[prev[s]], held[s] = held[s], []
        pairs.append(i)
    rows = {prev[s]: held[s] for s in range(n) if held[s] and prev[s] is not None}
    orphans = {s: held[s] for s in range(n) if held[s] and prev[s] is None}
    by_wave = sorted(range(len(pairs)), key=wave_of.__getitem__)
    pos = np.empty(len(pairs), dtype=int)   # application order -> plan order
    pos[by_wave] = np.arange(len(pairs))
    pair = np.array(pairs, dtype=int)[by_wave]
    site = np.array([g.site for g in gates], dtype=int)
    edges = np.cumsum([0, *np.bincount(np.array(wave_of, dtype=int))]).tolist()
    waves = tuple((slice(a, b), site[pair[a:b]][:, None] + np.arange(2))
                  for a, b in zip(edges, edges[1:]))
    slots = [*cols.values(), *rows.values(), *orphans.values()]
    phase = np.array([i for held in slots for i in held], dtype=int)
    heads = np.cumsum([0] + [len(held) for held in slots])[:-1]
    sizes = np.array([len(held) for held in slots], dtype=int)
    rounds = tuple((np.flatnonzero(sizes > r), heads[sizes > r] + r)
                   for r in range(max(sizes, default=0)))
    slot_index = (lambda keys: (pos[[a for a, _ in keys]],
                                np.array([side for _, side in keys], dtype=int)))
    layer = np.array([g.layer for g in gates], dtype=int)
    lam = np.array([gates[i].lam for i in phase], dtype=float)
    phase_E = _fold_phases(-lam + 2 * np.pi * np.round(lam / (2 * np.pi)))
    factors = np.array([gate_matrix(gates[i])[0, 0] for i in phase],
                       dtype=complex)
    blocks = np.array([gate_matrix(gates[i]) for i in pair],
                      dtype=complex).reshape(-1, 2, 2)
    E, P = _pair_spectra(blocks)
    if invert:
        layer, factors = seq.depth - 1 - layer, factors.conj()
        E, phase_E = _fold_phases(-E), _fold_phases(-phase_E)
        blocks = np.ascontiguousarray(blocks.conj().swapaxes(1, 2))
    return _WavePlan(pair, phase, waves, blocks, factors, layer[pair],
                     layer[phase], E, P, phase_E, rounds,
                     slot_index(list(cols)), slot_index(list(rows)),
                     np.array(list(orphans), dtype=int))


def _fold(plan: _WavePlan, blocks: np.ndarray, factors: np.ndarray):
    """(blocks, orphan factors): the phase gates' `factors` (phases, B)
    folded into the two-site `blocks` (pairs, 2, 2, B), in place, as
    `plan` assigns them; each block entry is the left operand.  A slot's
    phases multiply first, earlier phase on the left; a block takes its
    column factors before its row factors.  Blocks without phases keep
    their bits.  No product writes over an operand: numpy runs an in-place
    multiply of one element through its scalar loop, whose last bit can
    differ from the SIMD loop's, so one member alone would differ."""
    if not len(factors):
        return blocks, factors
    (_, heads), *later = plan.rounds
    acc = factors[heads]
    for slots, positions in later:
        acc[slots] = acc[slots] * factors[positions]
    (a, c), n_col, n_row = plan.cols, len(plan.cols[0]), len(plan.rows[0])
    blocks[a, :, c] = blocks[a, :, c] * acc[:n_col, None]
    blocks[plan.rows] = blocks[plan.rows] * acc[n_col:n_col + n_row, None]
    return blocks, acc[n_col + n_row:]


def _apply_waves(n_sites: int, plan: _WavePlan, blocks: np.ndarray,
                 orphans: np.ndarray) -> np.ndarray:
    """Products U[row, col, member] of the fused blocks of `plan`, first
    wave first, one per member: `blocks` (pairs, 2, 2, B) and the orphan
    factors `orphans` (sites, B) stand in, in plan order, for the fused
    two-site blocks and the rows that no block touches, one column per
    member; elementwise, as the module docstring describes.

    A wave's pairs update their two rows apart, (k, n, B) views r0 and r1
    of one gather, with no (k, 2, 2, n, B) tensor of all four products:
    b10 r0 + b11 r1 forms in place on r1 and b00 r0 + b01 r1 on r0, with
    b01 r1 taken before r1 is overwritten.  The block entry is the left
    operand of every such product, as in the per-block product
    a * r0 + b * r1, to which each member is bit-identical."""
    U = np.repeat(np.eye(n_sites, dtype=complex)[..., None], blocks.shape[-1], axis=2)
    if len(orphans):  # no block touches these rows: scale them once
        U[plan.orphans] = U[plan.orphans] * orphans[:, None]
    blocks = blocks[..., None, :]
    for pr, rows in plan.waves:
        b, rows = blocks[pr], rows.T
        gathered = U[rows]          # (2, k, n, B): rows r0 and r1 of each pair
        r0, r1 = gathered
        x = b[:, 0, 1] * r1
        np.multiply(b[:, 1, 1], r1, out=r1)
        r1 += b[:, 1, 0] * r0
        np.multiply(b[:, 0, 0], r0, out=r0)
        r0 += x
        U[rows] = gathered
        del gathered, r0, r1, x  # before the next wave allocates its own
    return U


def _fold_phases(E: np.ndarray) -> np.ndarray:
    # principal branch (-pi, pi]; -pi folds to +pi so swap's generator
    # carries eigenvalue +pi, and a phase within 1e-12 above -pi folds to
    # pi, not past it
    return np.minimum(np.where(E <= -np.pi + 1e-12, E + 2 * np.pi, E), np.pi)


def _pair_spectra(G: np.ndarray) -> tuple:
    """(E, P): the principal-branch eigenphases (n, 2), G = sum_k
    exp(-i E_k) P_k, and the orthogonal eigenprojectors P[:, k] =
    z_k z_k^dag (n, 2, 2, 2) of a stack of 2 x 2 unitaries G (n, 2, 2).

    A unitary G is normal, and its traceless part K = G - tr(G) I / 2 =
    [[k, b], [c, -k]] squares to s^2 I, s^2 = k^2 + bc, which carries no
    cancellation even when the eigenvalues tr(G)/2 +- s nearly coincide.
    z_0 is the null vector of K - s I taken from its larger row, z_1 =
    (-conj z_0[1], conj z_0[0]) spans the orthogonal complement, and
    E_k = -arg(z_k^dag G z_k), the Rayleigh quotient, folded to (-pi, pi].
    An exactly degenerate G (K = 0) takes the identity basis.  All of the
    stack at once, in numpy alone: no LAPACK call.
    """
    k, b, c = 0.5 * (G[:, 0, 0] - G[:, 1, 1]), G[:, 0, 1], G[:, 1, 0]
    s = np.sqrt(k * k + b * c)
    # null vectors of the rows (k - s, b) and (c, -k - s) of K - s I
    rows = np.stack([np.stack([b, s - k], axis=1), np.stack([k + s, c], axis=1)])
    norms = np.linalg.norm(rows, axis=2)
    v, norm = rows[norms.argmax(axis=0), np.arange(len(G))], norms.max(axis=0)
    Z = np.zeros_like(G)
    Z[:, 0, 0] = Z[:, 1, 1] = 1.0  # the identity basis of a degenerate G
    split = norm > 0
    Z[split, :, 0] = v[split] / norm[split, None]
    Z[split, 0, 1], Z[split, 1, 1] = -Z[split, 1, 0].conj(), Z[split, 0, 0].conj()
    E = -np.angle(np.einsum("gik,gij,gjk->gk", Z.conj(), G, Z))
    # P[g, k, i, j] = Z[g, i, k] conj(Z[g, j, k])
    P = np.moveaxis(Z[:, :, None, :] * Z.conj()[:, None, :, :], 3, 1)
    return _fold_phases(E), P


def _noisy_gates(plan: _WavePlan, draws: np.ndarray) -> tuple:
    """(blocks, factors) of `plan`'s two-site and phase gates, one per
    column of `draws` (see `_compose`), before any phase folds in.

    A noisy two-site gate is p_0 P_0 + p_1 P_1, its eigenprojectors P_k
    weighted by the phases p_k = exp(-i (1 + delta) E_k).  A draw of
    exactly 0 keeps the gate exact.  A function of its own so that its
    temporaries go before the fold and the waves allocate theirs."""
    d = draws[plan.phase_steps]
    factors = np.where(d == 0.0, plan.factors[:, None],
                       np.exp(-1j * (1.0 + d) * plan.phase_E[:, None]))
    d, P = draws[plan.steps], plan.P[..., None]
    p = -1j * (1.0 + d)[:, None] * plan.E[..., None]
    np.exp(p, out=p)
    blocks = P[:, 0] * p[:, None, None, 0]
    blocks += P[:, 1] * p[:, None, None, 1]
    # in place: np.where would allocate one more stack of blocks
    np.copyto(blocks, plan.blocks[..., None], where=(d == 0.0)[:, None, None])
    return blocks, factors


def _compose(seq: CircuitSequence, draws: np.ndarray,
             invert: bool = False) -> np.ndarray:
    """Products U[row, col, member] of `seq`, or of its inverse (reversed
    order, adjoint gates), one per column of the draw table `draws`
    (depth, members): every gate of Hamiltonian step s of member j is
    exp(-i (1 + draws[s, j]) H), H its principal-branch generator.

    `_wave_plan` says what step and generator each gate of a direction
    takes.  Each gate takes its own draw, and then the phase gates fold
    into the blocks (`_fold`)."""
    plan = _wave_plan(seq, invert)
    return _apply_waves(seq.n_sites, plan, *_fold(plan, *_noisy_gates(plan, draws)))


def sequence_to_unitary(seq: CircuitSequence) -> np.ndarray:
    """Dense product of all gates in application order (first gate first)."""
    return _compose(seq, np.zeros((seq.depth, 1)))[..., 0]


def dft_distance(U: np.ndarray) -> float:
    """Max entrywise distance of `U` from the DFT of its size after rephasing
    `U` so that it matches the DFT at the DFT's largest-magnitude entry."""
    target = dft_matrix(U.shape[0])
    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    ref = U[idx]
    if abs(ref) >= 1e-30:
        U = U * (target[idx] / ref) * (abs(ref) / abs(target[idx]))
    return float(np.abs(U - target).max())


# ---------------------------------------------------------------------------
# JSON interchange, schema "qqft-seq/1"

def sequence_to_json(seq: CircuitSequence) -> str:
    gates = []
    for g in seq.gates:
        entry = {"kind": g.kind, "site": g.site, "layer": g.layer}
        if g.kind == MIX:
            entry["theta"] = g.theta
            entry["phi"] = g.phi
        elif g.kind == PHASE:
            entry["lambda"] = g.lam
        gates.append(entry)
    doc = {"schema": SEQUENCE_SCHEMA, "n_sites": seq.n_sites, "gates": gates}
    return json.dumps(doc, indent=1)


def sequence_from_json(text: str) -> CircuitSequence:
    doc = json.loads(text)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SEQUENCE_SCHEMA:
        raise ValueError(
            f"unsupported sequence schema {schema!r}, "
            f"expected {SEQUENCE_SCHEMA!r}"
        )
    gates = []
    try:
        if not isinstance(doc["gates"], list):
            raise ValueError(f"sequence field 'gates' is {doc['gates']!r}, not a list")
        for k, entry in enumerate(doc["gates"]):
            if not isinstance(entry, dict):
                raise ValueError(f"sequence field 'gates[{k}]' is {entry!r}, not an object")
            gates.append(GateSpec(
                entry["kind"], entry["site"],
                theta=entry.get("theta", 0.0),
                phi=entry.get("phi", 0.0),
                lam=entry.get("lambda", 0.0),
                layer=entry.get("layer", 0),
            ))
        n_sites = doc["n_sites"]
    except KeyError as exc:
        raise ValueError(f"sequence document has no key {exc}") from None
    return CircuitSequence(n_sites=n_sites, gates=tuple(gates))
