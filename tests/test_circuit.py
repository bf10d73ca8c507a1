import cmath
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qqft import circuit
from qqft.circuit import (
    CircuitSequence,
    GateSpec,
    build_generic_qqft,
    build_radix2_qqft,
    depth_formula,
    dft_distance,
    sequence_from_json,
    sequence_to_json,
    sequence_to_unitary,
)


def dft_oracle(N):
    """Brute-force DFT matrix, written independently of circuit.dft_matrix."""
    W = np.zeros((N, N), dtype=complex)
    for k in range(N):
        for j in range(N):
            W[k, j] = cmath.exp(2j * cmath.pi * k * j / N) / math.sqrt(N)
    return W


def rotation_perm_oracle(p, n):
    """Permutation matrix from the bit-rotation definition:
    k_p <- j_0, k_{i} <- j_{i+1} for i < p, k_i <- j_i for i > p."""
    N = 1 << n
    P = np.zeros((N, N))
    for j in range(N):
        bits = [(j >> i) & 1 for i in range(n)]
        kbits = list(bits)
        kbits[p] = bits[0]
        for i in range(p):
            kbits[i] = bits[i + 1]
        k = sum(b << i for i, b in enumerate(kbits))
        P[k, j] = 1.0
    return P


def fold_phases(gates, mats):
    """The two-site gates of `gates`, taken in the given order, as
    [(site, block)], each phase gate folded in the way the kernel folds it,
    and {site: factor} for the phases on sites that no two-site gate
    touches.  mats[i] is the matrix of gates[i]; a phase gate's is taken
    as a (1,) array, so that every product below runs in numpy's array
    loops.

    A phase scales its site's column of the next two-site block on that
    site or, when none follows, its row of the last one.  Phases waiting
    for one slot multiply first, the earlier one on the left, and the
    block entry is the left operand of each product.  No product writes
    over its operand, as in the kernel."""
    held, last, pairs = {}, {}, []
    for g, m in zip(gates, mats):
        if g.kind == circuit.PHASE:
            m = np.reshape(m, 1)
            held[g.site] = held[g.site] * m if g.site in held else m
            continue
        block = np.array(m, dtype=complex)
        for side in (0, 1):
            if g.site + side in held:
                block[:, side] = block[:, side] * held.pop(g.site + side)
            last[g.site + side] = (block, side)
        pairs.append((g.site, block))
    orphans = {}
    for site, factor in held.items():
        if site in last:
            block, side = last[site]
            block[side, :] = block[side, :] * factor
        else:
            orphans[site] = factor
    return pairs, orphans


def apply_blocks(pairs, orphans, N):
    """The product of `fold_phases`'s output, block by block, in the
    kernel's elementwise form: [[a, b], [c, d]] writes a r0 + b r1 and
    c r0 + d r1 over rows r0, r1."""
    U = np.eye(N, dtype=complex)
    for j, block in pairs:
        r0, r1 = U[j].copy(), U[j + 1].copy()
        U[j] = block[0, 0] * r0 + block[0, 1] * r1
        U[j + 1] = block[1, 0] * r0 + block[1, 1] * r1
    for site, factor in orphans.items():
        U[site, :] = U[site, :] * factor
    return U


def compose(gates, N):
    """Per-gate product, first gate first, with the phases folded into the
    two-site blocks: the reference for the wave kernel."""
    mats = [circuit.gate_matrix(g) for g in gates]
    return apply_blocks(*fold_phases(gates, mats), N)


class TestDepthFormula:
    def test_values(self):
        assert depth_formula(1) == 1
        assert depth_formula(2) == 5
        assert depth_formula(5) == 106

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_forms_agree(self, n):
        # main form (n+2) 2^(n-1) - n - 1 versus regrouped (2^(n-1)-1) n + 2^n - 1
        alt = ((1 << (n - 1)) - 1) * n + (1 << n) - 1
        assert depth_formula(n) == alt

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            depth_formula(0)
        for n in (True, 2.0):  # and anything that is not an integer
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                depth_formula(n)


def swap_layer_gates(p, n):
    """The swap layers of R[p] as gates in application order, layer-tagged."""
    return [GateSpec(circuit.SWAP, s, layer=layer)
            for layer, sites in enumerate(circuit._swap_layers(p, n))
            for s in sites]


class TestReorderPermutation:
    def test_p0_is_identity(self):
        assert swap_layer_gates(0, 3) == []

    def test_single_swap_for_n2(self):
        gates = swap_layer_gates(1, 2)
        assert [(g.kind, g.site) for g in gates] == [("swap", 1)]
        assert np.array_equal(compose(gates, 4).real, rotation_perm_oracle(1, 2))

    def test_n2_bit_exchange(self):
        # j = (j1 j0) must land on k = (j0 j1)
        P = compose(swap_layer_gates(1, 2), 4)
        for j in range(4):
            k = ((j & 1) << 1) | (j >> 1)
            assert P[k, j] == 1.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_definition(self, n):
        for p in range(n):
            P = compose(swap_layer_gates(p, n), 1 << n)
            assert np.array_equal(P.real, rotation_perm_oracle(p, n))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            swap_layer_gates(3, 3)
        with pytest.raises(ValueError):
            swap_layer_gates(-1, 3)


class TestRadix2:
    def test_n1_single_mix(self):
        seq = build_radix2_qqft(1)
        assert seq.depth == 1
        assert len(seq.gates) == 1
        assert seq.gates[0].kind == "mix"

    def test_n2_depth(self):
        assert build_radix2_qqft(2).depth == 5

    def test_n5_depth(self):
        assert build_radix2_qqft(5).depth == 106

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_dft(self, n):
        seq = build_radix2_qqft(n)
        U = sequence_to_unitary(seq)
        assert np.abs(U - dft_oracle(1 << n)).max() < 1e-10

    @pytest.mark.parametrize("n", range(1, 7))
    def test_depth_matches_formula(self, n):
        assert build_radix2_qqft(n).depth == depth_formula(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_strict_locality(self, n):
        seq = build_radix2_qqft(n)
        for g in seq.gates:
            assert g.span() in (1, 2)
            assert 0 <= g.site <= seq.n_sites - g.span()

    @pytest.mark.parametrize("n", range(2, 7))
    def test_layers_act_on_disjoint_sites(self, n):
        seq = build_radix2_qqft(n)
        by_layer = {}
        for g in seq.gates:
            sites = by_layer.setdefault(g.layer, set())
            touched = set(range(g.site, g.site + g.span()))
            assert not (sites & touched)
            sites |= touched

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            build_radix2_qqft(0)
        with pytest.raises(ValueError):
            build_radix2_qqft(-2)
        with pytest.raises(ValueError):
            build_radix2_qqft(2.5)


class TestGeneric:
    def test_n2_matches_radix2(self):
        U_gen = sequence_to_unitary(build_generic_qqft(2))
        U_rad = sequence_to_unitary(build_radix2_qqft(1))
        assert np.abs(U_gen - U_rad).max() < 1e-12

    def test_n3_first_column(self):
        U = sequence_to_unitary(build_generic_qqft(3))
        assert np.abs(U[:, 0] - 1 / np.sqrt(3)).max() < 1e-12

    def test_n33_equals_dft(self):
        U = sequence_to_unitary(build_generic_qqft(33))
        assert np.abs(U - dft_oracle(33)).max() < 1e-10

    @pytest.mark.parametrize("N", [2, 3, 5, 6, 8, 12, 33, 48, 64])
    def test_depth_quadratic_bound(self, N):
        # one fixed constant c = 2 across all sizes
        assert build_generic_qqft(N).depth <= 2 * N * N

    @pytest.mark.parametrize("N", [4, 5, 7, 9, 16])
    def test_small_sizes_exact(self, N):
        U = sequence_to_unitary(build_generic_qqft(N))
        assert np.abs(U - dft_oracle(N)).max() < 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(N=st.integers(2, 64))
    def test_equals_dft_within_depth_bound(self, N):
        seq = build_generic_qqft(N)
        assert dft_distance(sequence_to_unitary(seq)) < 1e-10
        assert seq.depth <= 2 * N * N

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            build_generic_qqft(1)
        with pytest.raises(ValueError):
            build_generic_qqft(2.5)


class TestSequenceToUnitary:
    def test_two_point(self):
        U = sequence_to_unitary(build_radix2_qqft(1))
        assert np.abs(U - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < 1e-12

    def test_four_point_column(self):
        U = sequence_to_unitary(build_radix2_qqft(2))
        assert np.abs(U[:, 1] - np.array([1, 1j, -1, -1j]) / 2).max() < 1e-12

    def test_empty_sequence_is_identity(self):
        seq = CircuitSequence(n_sites=5)
        assert np.array_equal(sequence_to_unitary(seq), np.eye(5))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CircuitSequence(n_sites=2, gates=(GateSpec("swap", 1),))

    def test_overlapping_gates_in_one_layer_rejected(self):
        # mix on (0, 1) and mix on (1, 2) share site 1 in layer 0
        gates = (GateSpec("mix", 0, theta=0.3), GateSpec("mix", 1, theta=0.5))
        with pytest.raises(ValueError, match="layer 0.*site 1"):
            CircuitSequence(n_sites=3, gates=gates)

    @pytest.mark.parametrize("build", [
        lambda: GateSpec("mix", 1, theta=0.5, layer=-1),
        # a fractional tag once gave depth 1.5, which no draw could index
        lambda: GateSpec("mix", 1, theta=0.5, layer=0.5),
        # a bool is an int to Python, not a layer tag
        lambda: GateSpec("mix", 1, theta=0.5, layer=True),
        # the sequence the tag once let through: both gates touch site 1,
        # and a draw indexed by layer -1 is the last step's
        lambda: CircuitSequence(3, (GateSpec("mix", 0, theta=0.3),
                                    GateSpec("mix", 1, theta=0.5, layer=-1))),
        lambda: sequence_from_json(json.dumps({
            "schema": "qqft-seq/1", "n_sites": 3, "gates": [
                {"kind": "mix", "site": 0, "theta": 0.3, "layer": 0},
                {"kind": "mix", "site": 1, "theta": 0.5, "layer": -1}]})),
    ], ids=["gate", "fraction", "bool", "sequence", "json"])
    def test_bad_layer_tag_rejected(self, build):
        with pytest.raises(ValueError,
                           match=r"layer must be an integer >= 0, got (-1|0\.5|True)$"):
            build()

    @pytest.mark.parametrize("layers,depth", [((), 0), ((0,), 1), ((2, 0), 3),
                                              ((0, 4, 1), 5)])
    def test_depth_is_one_past_the_last_layer(self, layers, depth):
        gates = tuple(GateSpec("phase", 0, lam=0.1, layer=k) for k in layers)
        assert CircuitSequence(n_sites=1, gates=gates).depth == depth
        with pytest.raises(TypeError):
            CircuitSequence(n_sites=1, gates=gates, depth=depth)

    @pytest.mark.parametrize("field", ["theta", "phi", "lam"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GateSpec("mix", 0, **{field: value})

    @pytest.mark.parametrize("build", [
        lambda: GateSpec("bogus", 0),
        lambda: CircuitSequence(2, (GateSpec("teleport", 0),)),
    ], ids=["gate", "sequence"])
    def test_unknown_kind_rejected(self, build):
        with pytest.raises(ValueError, match="unknown gate kind"):
            build()

    @pytest.mark.parametrize("n_sites", [0, 2.5, 2.0, "2", True])
    def test_bad_site_count_rejected(self, n_sites):
        with pytest.raises(ValueError, match="n_sites must be an integer >= 1"):
            CircuitSequence(n_sites)

    @pytest.mark.parametrize("site", [1.0, 0.5, "0", None, True])
    def test_non_integer_site_rejected(self, site):
        with pytest.raises(ValueError, match="site must be an integer"):
            GateSpec("swap", site)


ROUTES = st.one_of(st.builds(build_generic_qqft, st.integers(2, 40)),
                   st.builds(build_radix2_qqft, st.integers(1, 5)))
ANGLES = st.floats(min_value=-4.0, max_value=4.0)


@st.composite
def free_sequences(draw):
    """Short sequences of any gates, one per layer: they hold what the two
    routes do not, such as several phases in a row, trailing phases and
    sites that no two-site gate touches."""
    n = draw(st.integers(1, 5))
    gates = []
    for layer in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from([circuit.PHASE] if n == 1 else
                                    [circuit.PHASE, circuit.MIX, circuit.SWAP]))
        site = draw(st.integers(0, n - (1 if kind == circuit.PHASE else 2)))
        gates.append(GateSpec(kind, site, theta=draw(ANGLES), phi=draw(ANGLES),
                              lam=draw(ANGLES), layer=layer))
    return CircuitSequence(n, tuple(gates))


SEQUENCES = st.one_of(ROUTES, free_sequences())


def plan_slots(plan):
    """{phase gate: its slot}, ("col" or "row", two-site gate, side) or
    ("orphan", site), and {slot: its phase gates in rank order}, read from
    the plan's rounds."""
    slots = ([("col", plan.pair[a], side) for a, side in zip(*plan.cols)]
             + [("row", plan.pair[a], side) for a, side in zip(*plan.rows)]
             + [("orphan", site) for site in plan.orphans])
    held = {slot: [] for slot in slots}
    for r, (ranked, positions) in enumerate(plan.rounds):
        for k, q in zip(ranked.tolist(), positions.tolist()):
            assert len(held[slots[k]]) == r
            held[slots[k]].append(plan.phase[q])
    return {i: slot for slot, ids in held.items() for i in ids}, held


def unitary(phases, seed):
    """Q diag(exp(-i phases)) Q^dag for a Haar-random 2 x 2 unitary Q."""
    z = np.random.default_rng(seed).normal(size=(2, 2, 2)).view(complex)[..., 0]
    Q, R = np.linalg.qr(z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return (Q * np.exp(-1j * np.asarray(phases))) @ Q.conj().T


def check_pair_spectra(G, E, P):
    """E and P of the 2 x 2 unitaries G against the spectral theorem and
    against a complex Schur form.  E lies in (-pi, pi].  `_fold_phases`
    takes an eigenvalue within 1e-12 of -1 as exactly exp(-i pi), so a gate
    with a phase of pi matches G and its eigenvalues to 2e-15 plus the
    distance of its eigenvalue from -1."""
    G = np.asarray(G, dtype=complex).reshape(-1, 2, 2)
    eye = np.eye(2)
    schur = [scipy.linalg.schur(g, output="complex") for g in G]
    want = np.array([np.diag(T) for T, _ in schur]).reshape(-1, 2)
    slack = np.where((E == np.pi).any(axis=1), np.abs(want + 1).min(axis=1), 0.0)
    assert (slack <= 1e-12).all()
    tol = 2e-15 + slack
    got = np.einsum("gk,gkij->gij", np.exp(-1j * E), P)
    assert (np.abs(got - G).max(axis=(1, 2)) < tol).all()
    assert np.abs(P - P.conj().swapaxes(-1, -2)).max() < 1e-15
    assert np.abs(P @ P - P).max() < 1e-15
    assert np.abs(P[:, 0] @ P[:, 1]).max() < 1e-15
    assert np.abs(P.sum(axis=1) - eye).max() < 1e-15
    assert ((-np.pi < E) & (E <= np.pi)).all()
    for g, e, (T, Z), w, t in zip(G, E, schur, want, tol):
        assert np.abs((Z * np.diag(T)) @ Z.conj().T - g).max() < 2e-15
        got = np.exp(-1j * e)
        assert min(np.abs(got - w).max(), np.abs(got[::-1] - w).max()) < t


class TestPairSpectra:
    """The closed-form eigenphases and eigenprojectors of `circuit._pair_spectra`."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(phases=st.lists(st.floats(-np.pi, np.pi), min_size=2, max_size=2),
           seed=st.integers(0, 2**32 - 1))
    def test_random_unitaries(self, phases, seed):
        G = unitary(phases, seed)[None]
        check_pair_spectra(G, *circuit._pair_spectra(G))

    @pytest.mark.parametrize("G,E", [
        (np.eye(2), [0.0, 0.0]),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), [0.0, np.pi]),
        (-np.eye(2), [np.pi, np.pi]),
        (np.array([[0.0, 1j], [1j, 0.0]]), [-np.pi / 2, np.pi / 2]),
    ], ids=["identity", "swap", "minus-identity", "i-swap"])
    def test_exact_gates(self, G, E):
        got_E, P = circuit._pair_spectra(np.asarray(G, dtype=complex)[None])
        check_pair_spectra(G, got_E, P)
        assert sorted(got_E[0]) == pytest.approx(E, abs=1e-15)
        if G[0, 1] == 0:  # degenerate: the identity basis
            assert np.array_equal(P[0], [np.diag([1, 0]), np.diag([0, 1])])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(phase=st.floats(-np.pi, np.pi), seed=st.integers(0, 2**32 - 1))
    def test_eigenvalue_minus_one(self, phase, seed):
        G = unitary([np.pi, phase], seed)[None]
        E, P = circuit._pair_spectra(G)
        check_pair_spectra(G, E, P)
        assert np.abs(np.exp(-1j * E) + 1).min() < 1e-15

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(phase=st.floats(-np.pi, np.pi), exponent=st.floats(-14.0, -9.0),
           seed=st.integers(0, 2**32 - 1))
    def test_near_degenerate_pairs(self, phase, exponent, seed):
        G = unitary([phase, phase + 10.0 ** exponent], seed)[None]
        check_pair_spectra(G, *circuit._pair_spectra(G))

    @pytest.mark.parametrize("theta", [5e-10, 1e-12, 5e-15, 0.0])
    def test_near_degenerate_gates(self, theta):
        # Mix(theta, pi) is the rotation by theta, with eigenphases +-theta
        seq = CircuitSequence(2, (GateSpec("mix", 0, theta=theta, phi=np.pi),))
        _, E, P = circuit._gate_spectra(seq)
        check_pair_spectra(circuit.gate_matrix(seq.gates[0]), E, P)

    @pytest.mark.parametrize("seq", [build_generic_qqft(N) for N in range(2, 41)]
                             + [build_radix2_qqft(n) for n in range(1, 7)],
                             ids=[f"generic-{N}" for N in range(2, 41)]
                             + [f"radix2-{n}" for n in range(1, 7)])
    def test_compiled_gates(self, seq):
        two = [i for i, g in enumerate(seq.gates) if g.kind != circuit.PHASE]
        _, E, P = circuit._gate_spectra(seq)
        check_pair_spectra([circuit.gate_matrix(seq.gates[i]) for i in two],
                           E[two], P[two])

    @pytest.mark.parametrize("seq", [build_generic_qqft(33), build_radix2_qqft(4)],
                             ids=["generic-33", "radix2-4"])
    def test_phases_on_principal_branch(self, seq):
        # every eigenphase, of phase gates too, and of the inverse gates as
        # the kernel folds them; a phase just above -pi once folded past +pi
        _, E, _ = circuit._gate_spectra(seq)
        for phases in (E, circuit._fold_phases(-E)):
            assert ((-np.pi < phases) & (phases <= np.pi)).all()


class TestWavePlan:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seq=SEQUENCES, invert=st.booleans())
    def test_invariants(self, seq, invert):
        gates, plan = seq.gates, circuit._wave_plan(seq, invert)
        order = list(range(len(gates)))[::-1 if invert else 1]
        wave_of = {}
        for w, (pr, rows) in enumerate(plan.waves):
            assert len(plan.pair[pr])
            assert len(set(rows.ravel())) == rows.size      # disjoint sites
            assert rows.tolist() == [[gates[i].site, gates[i].site + 1]
                                     for i in plan.pair[pr]]
            for i in plan.pair[pr]:
                assert i not in wave_of
                wave_of[i] = w
        pairs = [i for i in order if gates[i].kind != circuit.PHASE]
        assert sorted(wave_of) == sorted(pairs) and len(plan.pair) == len(pairs)
        last = {}
        for i in pairs:                 # each two-site gate after every earlier
            for s in (gates[i].site, gates[i].site + 1):  # one on its sites
                if s in last:
                    assert wave_of[last[s]] < wave_of[i]
                last[s] = i
        # each phase in the slot of the next two-site gate on its site, else
        # of the last one, else its site's row; a slot's phases in order
        slot_of, held = plan_slots(plan)
        phases = [i for i in order if gates[i].kind == circuit.PHASE]
        assert sorted(slot_of) == sorted(phases) == sorted(plan.phase)
        for k, i in enumerate(order):
            if gates[i].kind != circuit.PHASE:
                continue
            s = gates[i].site
            on_site = [j for j in pairs if s - 1 <= gates[j].site <= s]
            later = [j for j in on_site if order.index(j) > k]
            want = (("col", later[0], s - gates[later[0]].site) if later else
                    ("row", on_site[-1], s - gates[on_site[-1]].site) if on_site
                    else ("orphan", s))
            assert slot_of[i] == want
        for ids in held.values():
            assert ids == sorted(ids, key=order.index)

    @pytest.mark.parametrize("seq,gates,waves", [
        (build_generic_qqft(33), 1040, 63),     # 528 blocks, 512 phases fold
        (build_radix2_qqft(4), 188, 39),        # no phase gates
    ])
    def test_wave_counts(self, seq, gates, waves):
        assert len(seq.gates) == gates
        blocks = sum(g.kind != circuit.PHASE for g in seq.gates)
        assert blocks == (528 if seq.n_sites == 33 else gates)
        for invert in (False, True):
            plan = circuit._wave_plan(seq, invert)
            assert (len(plan.pair), len(plan.waves)) == (blocks, waves)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seq=SEQUENCES)
    def test_kernel_matches_per_gate_product(self, seq):
        U = sequence_to_unitary(seq)
        assert U.tobytes() == compose(seq.gates, seq.n_sites).tobytes()

    def test_compose_keeps_zero_draws_exact(self):
        # one draw table: a zero column, then one noisy column twice
        seq = build_generic_qqft(6)
        draws = np.zeros((seq.depth, 3))
        draws[::2, 1:] = 1e-2
        U = circuit._compose(seq, draws)
        assert U.shape == (6, 6, 3)
        assert U[..., 0].tobytes() == sequence_to_unitary(seq).tobytes()
        assert U[..., 1].tobytes() == U[..., 2].tobytes() != U[..., 0].tobytes()

    def test_equal_sequences_share_hash_and_cache_entry(self):
        seq = build_generic_qqft(7)
        again = sequence_from_json(sequence_to_json(seq))
        assert again == seq and again is not seq
        assert hash(again) == hash(seq)
        assert circuit._wave_plan(again, True) is circuit._wave_plan(seq, True)


class TestGlobalPhaseAlignment:
    def test_distance_ignores_global_phase(self):
        U = circuit.dft_matrix(8) * np.exp(0.37j)
        assert dft_distance(U) < 1e-12

    def test_distance_detects_corruption(self):
        U = circuit.dft_matrix(8).copy()
        U[2, 3] += 1e-3
        assert dft_distance(U) > 1e-4


class TestJson:
    def test_round_trip(self):
        seq = build_radix2_qqft(3)
        again = sequence_from_json(sequence_to_json(seq))
        assert again == seq

    def test_generic_round_trip(self):
        seq = build_generic_qqft(5)
        again = sequence_from_json(sequence_to_json(seq))
        assert again == seq
        assert np.abs(sequence_to_unitary(again)
                      - sequence_to_unitary(seq)).max() == 0.0

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seq=st.one_of(st.builds(build_generic_qqft, st.integers(2, 64)),
                         st.builds(build_radix2_qqft, st.integers(1, 6))))
    def test_round_trip_property(self, seq):
        again = sequence_from_json(sequence_to_json(seq))
        assert again == seq
        assert sequence_to_unitary(again).tobytes() == \
            sequence_to_unitary(seq).tobytes()

    # json.dumps refused a numpy integer in each of the three places
    @pytest.mark.parametrize("site,layer,n_sites", [(np.int64(1), 0, 3),
                                                    (1, np.int32(2), 3),
                                                    (1, 0, np.uint8(3))])
    def test_numpy_integers_written_as_ints(self, site, layer, n_sites):
        seq = CircuitSequence(n_sites, (GateSpec("swap", site, layer=layer),))
        doc = json.loads(sequence_to_json(seq))
        assert doc["n_sites"] == 3
        assert doc["gates"] == [{"kind": "swap", "site": 1, "layer": layer}]
        assert sequence_from_json(sequence_to_json(seq)) == seq

    # json.dumps refused a numpy float32 angle, which is no Python float
    def test_numpy_float_angle_written_as_float(self):
        seq = CircuitSequence(2, (GateSpec("mix", 0, theta=np.float32(0.3)),))
        doc = json.loads(sequence_to_json(seq))
        assert doc["gates"][0]["theta"] == float(np.float32(0.3))
        assert sequence_from_json(sequence_to_json(seq)) == seq

    @pytest.mark.parametrize("field", ["theta", "phi", "lam"])
    @pytest.mark.parametrize("value", ["0.3", 0.3j, None])
    def test_non_real_angle_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"gate {field} must be a finite real,"):
            GateSpec("mix", 0, **{field: value})

    def test_schema_string(self):
        doc = json.loads(sequence_to_json(build_radix2_qqft(1)))
        assert doc["schema"] == "qqft-seq/1"
        assert set(doc) == {"schema", "n_sites", "gates"}

    def test_unknown_schema_rejected(self):
        doc = json.loads(sequence_to_json(build_radix2_qqft(1)))
        doc["schema"] = "qqft-seq/2"
        with pytest.raises(ValueError):
            sequence_from_json(json.dumps(doc))

    def test_unknown_kind_rejected(self):
        doc = json.loads(sequence_to_json(build_radix2_qqft(1)))
        doc["gates"][0]["kind"] = "teleport"
        with pytest.raises(ValueError, match="unknown gate kind 'teleport'"):
            sequence_from_json(json.dumps(doc))

    @pytest.mark.parametrize("drop,key", [
        (lambda doc: doc.pop("gates"), "gates"),
        (lambda doc: doc.pop("n_sites"), "n_sites"),
        (lambda doc: doc["gates"][0].pop("kind"), "kind"),
        (lambda doc: doc["gates"][0].pop("site"), "site")])
    def test_missing_key_named(self, drop, key):
        doc = json.loads(sequence_to_json(build_radix2_qqft(2)))
        drop(doc)
        with pytest.raises(ValueError, match=f"no key '{key}'"):
            sequence_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[]", "3", '"qqft-seq/1"', "{}"])
    def test_non_document_rejected(self, text):
        with pytest.raises(ValueError, match="schema"):
            sequence_from_json(text)

    def test_overlapping_layer_rejected(self):
        doc = {"schema": "qqft-seq/1", "n_sites": 3, "gates": [
            {"kind": "mix", "site": 0, "theta": 0.3, "phi": 0.0, "layer": 0},
            {"kind": "mix", "site": 1, "theta": 0.5, "phi": 0.0, "layer": 0}]}
        with pytest.raises(ValueError, match="layer 0.*site 1"):
            sequence_from_json(json.dumps(doc))

    # read as given: int() once truncated a layer of 0.5 to 0, 2.7 sites to 2
    @pytest.mark.parametrize("key,value", [("site", 0.5), ("site", "0"),
                                           ("layer", 0.5), ("n_sites", 2.7)])
    def test_non_integer_index_rejected(self, key, value):
        doc = {"schema": "qqft-seq/1", "n_sites": 2, "gates": [
            {"kind": "swap", "site": 0, "layer": 0}]}
        (doc if key == "n_sites" else doc["gates"][0])[key] = value
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            sequence_from_json(json.dumps(doc))

    @pytest.mark.parametrize("key,field", [("theta", "theta"), ("phi", "phi"),
                                           ("lambda", "lam")])
    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_angle_rejected(self, key, field, value):
        kind = "phase" if key == "lambda" else "mix"
        text = ('{"schema": "qqft-seq/1", "n_sites": 2, "gates": '
                f'[{{"kind": "{kind}", "site": 0, "{key}": {value}}}]}}')
        with pytest.raises(ValueError, match=field):
            sequence_from_json(text)
