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

Every product of gates runs through one kernel, `_apply_waves`: gates on
disjoint sites form a wave, and each wave updates a batch-last array
U[row, col, member] that holds many products at once.  A phase gate scales
its row and a two-site gate [[a, b], [c, d]] writes a r0 + b r1 and
c r0 + d r1 over its two rows, with one coefficient per member: the kernel
gathers rows r0 and r1 of all of a wave's pairs at once, forms the two sums
in place on them, and scatters both back.  It runs elementwise ufuncs only,
no BLAS, so a member's bits do not depend on how many members share the
pass or where it sits among them.  A pair gate's coefficient is the left
operand of each of its products (`a * r0`, never `r0 * a`): numpy's SIMD
complex multiply fuses a multiply-add, so the two orders can differ in the
last bit.

A sequence can be serialized to a versioned JSON document (schema
``qqft-seq/1``) for interchange with the command-line tools.
"""

from __future__ import annotations

import json
import math
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
        for name in ("theta", "phi", "lam"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"gate {name} must be finite, got {value}")
        if not isinstance(self.layer, (int, np.integer)) or self.layer < 0:
            raise ValueError(f"gate layer must be an integer >= 0, got {self.layer!r}")

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
    if gate.kind == PHASE:
        return np.array([[complex(math.cos(gate.lam), math.sin(gate.lam))]])
    raise ValueError(f"unknown gate kind {gate.kind!r}")


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
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
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
        # hashed once: the per-sequence caches look a sequence up on every
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
    if n < 1:
        raise ValueError("n must be >= 1")
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
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("n must be an integer")
    if n < 1:
        raise ValueError("n must be >= 1")
    n = int(n)
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
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool):
        raise ValueError("N must be an integer")
    if N < 2:
        raise ValueError("N must be >= 2")
    N = int(N)
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
    """The gates of one sequence direction grouped into waves.

    `phase` and `pair` index `seq.gates`: the single-site and the two-site
    gates, wave by wave and in application order within a wave.  Wave w
    covers `phase[ph]` on rows `sites` and `pair[pr]` on row pairs `rows`
    (shape (k, 2)), for `(ph, sites, pr, rows) = waves[w]`.  `factors` and
    `blocks` are those gates' exact phases and 2 x 2 blocks in the same
    order, adjoint for the inverse direction.
    """

    phase: np.ndarray
    pair: np.ndarray
    waves: tuple
    factors: np.ndarray
    blocks: np.ndarray


@lru_cache(maxsize=64)
def _wave_plan(seq: CircuitSequence, invert: bool) -> _WavePlan:
    """Wave schedule of `seq`, or of its inverse (reversed gate order).

    A gate joins wave 1 + (the latest wave of an earlier gate on any of its
    sites).  Gates in one wave therefore act on disjoint sites, and every
    gate follows each earlier gate it shares a site with, so composing wave
    by wave only reorders row updates on disjoint data: the product is the
    per-gate one bit for bit.  Layer tags are untouched.
    """
    order = range(len(seq.gates))
    last = [-1] * seq.n_sites
    waves = []
    for i in (reversed(order) if invert else order):
        g = seq.gates[i]
        sites = range(g.site, g.site + g.span())
        w = 1 + max(last[s] for s in sites)
        for s in sites:
            last[s] = w
        if w == len(waves):
            waves.append(([], []))
        waves[w][g.kind != PHASE].append(i)
    phase = np.array([i for ph, _ in waves for i in ph], dtype=int)
    pair = np.array([i for _, pr in waves for i in pr], dtype=int)
    site = np.array([g.site for g in seq.gates], dtype=int)
    spans, n_ph, n_pr = [], 0, 0
    for ph, pr in waves:
        spans.append((slice(n_ph, n_ph + len(ph)), site[ph],
                      slice(n_pr, n_pr + len(pr)),
                      site[pr][:, None] + np.arange(2)))
        n_ph += len(ph)
        n_pr += len(pr)
    factors = np.array([gate_matrix(seq.gates[i])[0, 0] for i in phase],
                       dtype=complex)
    blocks = np.array([gate_matrix(seq.gates[i]) for i in pair],
                      dtype=complex).reshape(-1, 2, 2)
    if invert:
        factors = factors.conj()
        blocks = np.ascontiguousarray(blocks.conj().swapaxes(1, 2))
    return _WavePlan(phase, pair, tuple(spans), factors, blocks)


def _apply_waves(n_sites: int, plan: _WavePlan, factors: np.ndarray,
                 blocks: np.ndarray) -> np.ndarray:
    """Products U[row, col, member] of the gates of `plan`, first wave first,
    one per last index of `factors` (phase gates, B) and `blocks` (pair
    gates, 2, 2, B), which stand in, in plan order, for the phase and
    two-site gates; elementwise, as the module docstring describes.

    A wave's pairs update their two rows apart, (k, n, B) views r0 and r1
    of one gather, with no (k, 2, 2, n, B) tensor of all four products:
    b10 r0 + b11 r1 forms in place on r1 and b00 r0 + b01 r1 on r0, with
    b01 r1 taken before r1 is overwritten.  The block entry is the left
    operand of every such product, as in the per-gate product
    a * r0 + b * r1, to which each member is bit-identical."""
    U = np.repeat(np.eye(n_sites, dtype=complex)[..., None], factors.shape[-1],
                  axis=2)
    factors, blocks = factors[:, None], blocks[..., None, :]
    for ph, sites, pr, rows in plan.waves:
        if len(sites):
            U[sites] *= factors[ph]
        if len(rows):
            b, rows = blocks[pr], rows.T
            gathered = U[rows]      # (2, k, n, B): rows r0 and r1 of each pair
            r0, r1 = gathered
            x = b[:, 0, 1] * r1
            np.multiply(b[:, 1, 1], r1, out=r1)
            r1 += b[:, 1, 0] * r0
            np.multiply(b[:, 0, 0], r0, out=r0)
            r0 += x
            U[rows] = gathered
            del gathered, r0, r1, x  # before the next wave allocates its own
    return U


def sequence_to_unitary(seq: CircuitSequence) -> np.ndarray:
    """Dense product of all gates in application order (first gate first)."""
    plan = _wave_plan(seq, False)
    return _apply_waves(seq.n_sites, plan, plan.factors[:, None],
                        plan.blocks[..., None])[..., 0]


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
        for entry in doc["gates"]:
            kind = entry["kind"]
            if kind not in (SWAP, MIX, PHASE):
                raise ValueError(f"unknown gate kind {kind!r}")
            gates.append(GateSpec(
                kind, int(entry["site"]),
                theta=float(entry.get("theta", 0.0)),
                phi=float(entry.get("phi", 0.0)),
                lam=float(entry.get("lambda", 0.0)),
                layer=int(entry.get("layer", 0)),
            ))
        n_sites = int(doc["n_sites"])
    except KeyError as exc:
        raise ValueError(f"sequence document has no key {exc}") from None
    return CircuitSequence(n_sites=n_sites, gates=tuple(gates))
