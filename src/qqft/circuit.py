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

A sequence can be serialized to a versioned JSON document (schema
``qqft-seq/1``) for interchange with the command-line tools.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

SEQUENCE_SCHEMA = "qqft-seq/1"

SWAP = "swap"
MIX = "mix"
PHASE = "phase"

_SWAP_MATRIX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


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
    layer     index of the parallelizable Hamiltonian step this gate
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

    `gates` are applied first-element-first.  `depth` counts parallelizable
    Hamiltonian steps (distinct layer tags), which is the quantity the
    closed-form depth expressions refer to; the raw gate count is
    ``len(gates)``.  Gates sharing a layer must act on disjoint sites: the
    noise model gives each layer one draw, as one strictly-local step.
    """

    n_sites: int
    gates: tuple = field(default_factory=tuple)
    depth: int = 0

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("n_sites must be positive")
        occupied = set()
        for g in self.gates:
            if not 0 <= g.site <= self.n_sites - g.span():
                raise ValueError(
                    f"gate {g} does not fit on {self.n_sites} sites"
                )
            for site in range(g.site, g.site + g.span()):
                if (g.layer, site) in occupied:
                    raise ValueError(
                        f"layer {g.layer}: two gates act on site {site}"
                    )
                occupied.add((g.layer, site))
        n_layers = 1 + max((g.layer for g in self.gates), default=-1)
        if self.depth != n_layers:
            raise ValueError(
                f"depth {self.depth} inconsistent with {n_layers} layers"
            )


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
    layers = []
    block = 1 << (p + 1)
    for u in range(1, 1 << p):
        sites = []
        for g in range(1 << (n - p - 1)):
            base = g * block
            sites.extend(range(base + u, base + block - 1 - u, 2))
        layers.append(sites)
    return layers


def reorder_permutation(p: int, n: int) -> list:
    """Swap-gate realization of the bit-rotation permutation R[p].

    Returns the gates in application order with layer tags 0, 1, ...;
    composing them yields exactly the permutation matrix that sends basis
    state j to the index with bits (j_{n-1}, .., j_{p+1}, j_0, j_p, .., j_1).
    R[0] permutes nothing and yields an empty list.
    """
    gates = []
    for layer, sites in enumerate(_swap_layers(p, n)):
        gates.extend(GateSpec(SWAP, s, layer=layer) for s in sites)
    return gates


def _mix_phase_exponent(r: int, q: int, n: int) -> int:
    # relative-phase exponent of the stage-q mixing block on pair r, built
    # from bits 0..q-1 of r: sum_t 2**(n-2-q+t) * bit_{t-1}(r)
    ph = 0
    for t in range(1, q + 1):
        ph += (1 << (n - 2 - q + t)) * ((r >> (t - 1)) & 1)
    return ph


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
    return CircuitSequence(n_sites=N, gates=tuple(gates), depth=layer)


def _two_site_factor(W: np.ndarray, tol: float = 1e-12) -> list:
    """Split a 2x2 unitary into [Mix, Phase, Phase] gates (application order).

    Any 2x2 unitary factors as diag(e^{i a}, e^{i b}) @ Mix(theta, phi); the
    diagonal is emitted as trailing single-site phases.  Near-zero angles are
    dropped.
    """
    a, b = abs(W[0, 0]), abs(W[1, 0])
    theta = math.atan2(b, a)
    if b < tol:  # diagonal block: Mix(0, 0) = diag(1, -1)
        parts = [(MIX, theta, 0.0)]
        top, bot = np.angle(W[0, 0]), np.angle(-W[1, 1])
    elif a < tol:  # antidiagonal block: Mix(pi/2, phi) = [[0, e^{i phi}], [1, 0]]
        parts = [(MIX, theta, float(np.angle(W[0, 1])))]
        top, bot = 0.0, np.angle(W[1, 0])
    else:
        top = np.angle(W[0, 0])
        bot = np.angle(W[1, 0])
        parts = [(MIX, theta, float(np.angle(W[0, 1]) - top))]
    out = list(parts)
    if abs(top) > tol:
        out.append((PHASE, 0, float(top)))
    if abs(bot) > tol:
        out.append((PHASE, 1, float(bot)))
    return out


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
        for part in _two_site_factor(G.conj().T):
            if part[0] == MIX:
                gates.append(GateSpec(MIX, j, theta=part[1], phi=part[2],
                                      layer=layer))
            else:
                gates.append(GateSpec(PHASE, j + part[1], lam=part[2],
                                      layer=layer))
            layer += 1
    return CircuitSequence(n_sites=N, gates=tuple(gates), depth=layer)


def compile_for_size(N: int) -> CircuitSequence:
    """The N-site Fourier sequence: radix-2 when N is a power of two,
    the generic route otherwise."""
    n = N.bit_length() - 1
    if 1 << n == N:
        return build_radix2_qqft(n)
    return build_generic_qqft(N)


def sequence_to_unitary(seq: CircuitSequence) -> np.ndarray:
    """Dense product of all gates in application order (first gate first)."""
    U = np.eye(seq.n_sites, dtype=complex)
    for g in seq.gates:
        apply_gate(U, g)
    return U


def apply_gate(U: np.ndarray, gate: GateSpec, block: np.ndarray = None):
    """Left-multiply `U` in place by the gate (or an override `block`)."""
    if gate.site + gate.span() > U.shape[0]:
        raise ValueError(f"gate {gate} exceeds dimension {U.shape[0]}")
    if block is None:
        block = gate_matrix(gate)
    j = gate.site
    if gate.kind == PHASE:
        U[j, :] *= block[0, 0]
    else:
        U[j: j + 2, :] = block @ U[j: j + 2, :]


def align_global_phase(U: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Rephase `U` so its largest-magnitude target entry matches `target`."""
    idx = np.unravel_index(np.argmax(np.abs(target)), target.shape)
    ref = U[idx]
    if abs(ref) < 1e-30:
        return U
    return U * (target[idx] / ref) * (abs(ref) / abs(target[idx]))


def dft_distance(U: np.ndarray, N: int = None) -> float:
    """Max entrywise distance of `U` from the DFT after phase alignment."""
    if N is None:
        N = U.shape[0]
    target = dft_matrix(N)
    return float(np.abs(align_global_phase(U, target) - target).max())


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
    if doc.get("schema") != SEQUENCE_SCHEMA:
        raise ValueError(
            f"unsupported sequence schema {doc.get('schema')!r}, "
            f"expected {SEQUENCE_SCHEMA!r}"
        )
    gates = []
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
    depth = 1 + max((g.layer for g in gates), default=-1)
    return CircuitSequence(n_sites=int(doc["n_sites"]), gates=tuple(gates),
                           depth=depth)
