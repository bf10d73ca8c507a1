import cmath
import json
import math

import numpy as np
import pytest

from qqft import circuit
from qqft.circuit import (
    CircuitSequence,
    GateSpec,
    build_generic_qqft,
    build_radix2_qqft,
    depth_formula,
    dft_distance,
    reorder_permutation,
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


def compose(gates, N):
    U = np.eye(N, dtype=complex)
    for g in gates:
        circuit.apply_gate(U, g)
    return U


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


class TestReorderPermutation:
    def test_p0_is_identity(self):
        assert reorder_permutation(0, 3) == []

    def test_single_swap_for_n2(self):
        gates = reorder_permutation(1, 2)
        assert [(g.kind, g.site) for g in gates] == [("swap", 1)]
        assert np.array_equal(compose(gates, 4).real, rotation_perm_oracle(1, 2))

    def test_n2_bit_exchange(self):
        # j = (j1 j0) must land on k = (j0 j1)
        P = compose(reorder_permutation(1, 2), 4)
        for j in range(4):
            k = ((j & 1) << 1) | (j >> 1)
            assert P[k, j] == 1.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_definition(self, n):
        for p in range(n):
            P = compose(reorder_permutation(p, n), 1 << n)
            assert np.array_equal(P.real, rotation_perm_oracle(p, n))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            reorder_permutation(3, 3)
        with pytest.raises(ValueError):
            reorder_permutation(-1, 3)


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
            CircuitSequence(n_sites=2, gates=(GateSpec("swap", 1),), depth=1)

    def test_overlapping_gates_in_one_layer_rejected(self):
        # mix on (0, 1) and mix on (1, 2) share site 1 in layer 0
        gates = (GateSpec("mix", 0, theta=0.3), GateSpec("mix", 1, theta=0.5))
        with pytest.raises(ValueError, match="layer 0.*site 1"):
            CircuitSequence(n_sites=3, gates=gates, depth=1)

    @pytest.mark.parametrize("field", ["theta", "phi", "lam"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            GateSpec("mix", 0, **{field: value})


class TestGlobalPhaseAlignment:
    def test_distance_ignores_global_phase(self):
        U = circuit.dft_matrix(8) * np.exp(0.37j)
        assert dft_distance(U, 8) < 1e-12

    def test_distance_detects_corruption(self):
        U = circuit.dft_matrix(8).copy()
        U[2, 3] += 1e-3
        assert dft_distance(U, 8) > 1e-4


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
        with pytest.raises(ValueError):
            sequence_from_json(json.dumps(doc))

    def test_overlapping_layer_rejected(self):
        doc = {"schema": "qqft-seq/1", "n_sites": 3, "gates": [
            {"kind": "mix", "site": 0, "theta": 0.3, "phi": 0.0, "layer": 0},
            {"kind": "mix", "site": 1, "theta": 0.5, "phi": 0.0, "layer": 0}]}
        with pytest.raises(ValueError, match="layer 0.*site 1"):
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
