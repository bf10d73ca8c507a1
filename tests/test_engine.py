import ctypes
import math
import platform
import resource
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from qqft import circuit, engine, poincare
from qqft.circuit import GateSpec, gate_matrix, sequence_to_unitary
from qqft.engine import NoiseModel, apply_noisy_sequence
from qqft.protocol import MomentumModel
from test_circuit import apply_blocks, fold_phases, free_sequences, gate_spectra
from test_workers import run_fresh


WORDS = st.integers(min_value=0, max_value=2**64 - 1)
# noise strengths of one sweep column; 5e-324 underflows most draws to
# exactly 0, which keeps a gate exact, and repeats are allowed
SIGMA_COLUMNS = st.lists(st.sampled_from([0.0, 5e-324, 1e-3, 2e-2, 0.3]),
                         min_size=1, max_size=6)
# a block that mixes the noiseless model, a column with noise on the
# diagonal step and a one-sigma model, and its members, in order, each as
# the one-sigma model that gives it alone
MIXED_BLOCK = (engine.NOISELESS[0],
               NoiseModel((0.0, 1e-3), 5, stream_id=2, diagonal=True),
               NoiseModel(5e-2, 5, stream_id=3))
MIXED_MEMBERS = (engine.NOISELESS[0],
                 NoiseModel(0.0, 5, stream_id=2, diagonal=True),
                 NoiseModel(1e-3, 5, stream_id=2, diagonal=True),
                 NoiseModel(5e-2, 5, stream_id=3))
# the width of the Poincare benchmark's blocks: four columns of five sigmas,
# three of the benchmark's nonzero sigmas and one that mixes exact gates in
WIDE_BLOCK = tuple(NoiseModel((1e-3, 5e-3, 1e-2, 2e-2, 5e-2), 3, stream_id=r)
                   for r in (1, 2, 3)) + (
    NoiseModel((0.0, 5e-324, 1e-3, 2e-2, 0.3), 3, stream_id=4),)


def unitarity_defect(U):
    """Max-norm deviation of U U^dag from the identity."""
    return float(np.abs(U @ U.conj().T - np.eye(U.shape[0])).max())


def unitary_eig(U):
    """Eigenphases E in (-pi, pi] and an orthonormal eigenbasis Z of a
    unitary, U = Z diag(exp(-i E)) Z^dag, from a complex Schur form."""
    T, Z = scipy.linalg.schur(np.asarray(U, dtype=complex), output="complex")
    return circuit._fold_phases(-np.angle(np.diag(T))), Z


def scalar_draw_reference(noise, step):
    """Box-Muller draw of one step on Python integers: the reference for
    the uint64 lanes of NoiseModel.delta.  A zero sigma draws a signed 0."""
    x = engine._mix64(noise.seed, noise.stream_id, step)
    u1 = ((x >> 11) + 1) / (1 << 53)
    u2 = (engine._splitmix64(x) >> 11) / (1 << 53)
    return noise.sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def per_gate_reference(seq, noise, invert=False, matmul=False):
    """prod_s exp(-i (1 + delta_s) H[s]) one gate at a time, each with its
    own scalar draw: the reference for the wave kernel.

    In the kernel's elementwise form, a noisy two-site gate is
    p_0 P_0 + p_1 P_1 over the eigenphases and eigenprojectors P_k of the
    gate alone (`test_circuit.gate_spectra`), each phase gate folds into a
    two-site block as the kernel folds it (`test_circuit.fold_phases`), and
    a block [[a, b], [c, d]] writes a r0 + b r1 and c r0 + d r1 over its
    rows.  `matmul=True` takes the textbook form instead, (Z * p) @ Z^dag
    from a complex Schur form and `block @ rows` gate by gate, with no
    folding, which agrees with the kernel up to roundoff only.
    """
    gates = seq.gates[::-1] if invert else seq.gates
    mats = []
    for g in gates:
        block = gate_matrix(g)
        step = seq.depth - 1 - g.layer if invert else g.layer
        delta = scalar_draw_reference(noise, step) if noise.sigma != 0.0 else 0.0
        if g.kind == circuit.PHASE:
            if delta == 0.0:
                factor = np.conj(block[0, 0]) if invert else block[0, 0]
            else:
                w = -g.lam
                w -= 2 * np.pi * np.round(w / (2 * np.pi))
                E = circuit._fold_phases(np.array([w]))
                w = circuit._fold_phases(-E) if invert else E
                factor = np.exp(-1j * (1.0 + delta) * w[0])
            mats.append(factor)
        elif delta == 0.0:
            mats.append(block.conj().T if invert else block)
        elif matmul:
            E, Z = unitary_eig(block)
            w = circuit._fold_phases(-E) if invert else E
            mats.append((Z * np.exp(-1j * (1.0 + delta) * w)) @ Z.conj().T)
        else:
            (E,), (P,) = gate_spectra(block)
            w = circuit._fold_phases(-E) if invert else E
            p = np.exp(-1j * (1.0 + delta) * w)
            mats.append(P[0] * p[0] + P[1] * p[1])
    if not matmul:
        return apply_blocks(*fold_phases(gates, mats), seq.n_sites)
    U = np.eye(seq.n_sites, dtype=complex)
    for g, m in zip(gates, mats):
        j = g.site
        if g.kind == circuit.PHASE:
            U[j, :] *= m
        else:
            U[j: j + 2, :] = m @ U[j: j + 2, :]
    return U


def dft2_oracle():
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestNoiseModel:
    def test_zero_sigma_draws_zero(self):
        noise = NoiseModel(0.0, seed=1)
        assert noise.delta(0) == 0.0

    def test_deterministic(self):
        a = NoiseModel(0.1, seed=42, stream_id=7)
        b = NoiseModel(0.1, seed=42, stream_id=7)
        assert [a.delta(s) for s in range(20)] == [b.delta(s) for s in range(20)]

    def test_streams_differ(self):
        a = NoiseModel(0.1, seed=42, stream_id=0)
        b = NoiseModel(0.1, seed=42, stream_id=1)
        assert a.delta(0) != b.delta(0)

    def test_substream_deterministic(self):
        a = NoiseModel(0.1, seed=42, stream_id=3).substream(5)
        b = NoiseModel(0.1, seed=42, stream_id=3).substream(5)
        assert a == b
        assert a != NoiseModel(0.1, seed=42, stream_id=3).substream(6)

    @pytest.mark.parametrize("sigma", [0.1, (0.0, 0.1)])
    def test_substream_keeps_diagonal(self, sigma):
        noise = NoiseModel(sigma, seed=42, stream_id=3, diagonal=True)
        sub = noise.substream(5).substream(engine._SALT_DIAGONAL)
        assert sub.diagonal is True
        assert (sub.sigma, sub.seed) == (noise.sigma, noise.seed)
        plain = NoiseModel(sigma, seed=42, stream_id=3).substream(5)
        assert noise.substream(5).stream_id == plain.stream_id
        assert not plain.diagonal
        # the draws do not depend on the switch; only whether one is taken
        assert np.array_equal(noise.substream(5).delta(np.arange(4)),
                              plain.delta(np.arange(4)))

    def test_scales_linearly_with_sigma(self):
        a = NoiseModel(0.1, seed=9)
        b = NoiseModel(0.2, seed=9)
        assert b.delta(4) == pytest.approx(2 * a.delta(4), rel=1e-15)

    def test_moments(self):
        noise = NoiseModel(1.0, seed=2024)
        draws = noise.delta(np.arange(20000))
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=WORDS, stream=WORDS,
           sigma=st.sampled_from([0.0, 5e-324, 1e-3, 5e-2, 1.0, 7.25]),
           steps=st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                          max_size=40))
    def test_array_of_steps_matches_scalar_draws(self, seed, stream, sigma,
                                                  steps):
        noise = NoiseModel(sigma, seed=seed, stream_id=stream)
        draws = noise.delta(np.array(steps, dtype=np.int64))
        expected = [scalar_draw_reference(noise, s) for s in steps]
        assert draws.shape == (len(steps),)
        assert draws.tobytes() == np.array(expected, dtype=float).tobytes()
        singles = [noise.delta(s) for s in steps]
        assert all(type(d) is float for d in singles)
        assert np.array(singles, dtype=float).tobytes() == draws.tobytes()

    def test_matches_scalar_draws_where_numpy_log_differs(self):
        # numpy's AVX-512 log misses math.log's last bit for a few arguments
        # in a thousand, 16 of the u1 of these 4000 steps, so a numpy log in
        # the draws would show here on a machine where numpy's log runs
        # AVX-512.  Its AVX2 and baseline logs agree with math.log on all
        # 4000: the draws are asserted on every path all the same
        noise, steps = NoiseModel(1.0, seed=9, stream_id=4), range(4000)
        expected = [scalar_draw_reference(noise, s) for s in steps]
        assert noise.delta(np.arange(4000)).tobytes() == \
            np.array(expected).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=WORDS, stream=WORDS, column=SIGMA_COLUMNS,
           steps=st.one_of(
               st.integers(min_value=0, max_value=2**63 - 1),
               st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                        max_size=40).map(lambda s: np.array(s, dtype=np.int64))))
    def test_shared_factors_match_per_element_expression(self, seed, stream,
                                                         column, steps):
        # one stream at every sigma of a column, as a sweep task draws it:
        # one row per sigma, each the per-element expression of that sigma
        draws = NoiseModel(tuple(column), seed=seed, stream_id=stream).delta(steps)
        assert draws.shape == (len(column),) + np.shape(steps)
        for sigma, row in zip(column, draws):
            noise = NoiseModel(sigma, seed=seed, stream_id=stream)
            expected = [scalar_draw_reference(noise, int(s))
                        for s in np.ravel(steps)]
            assert row.tobytes() == \
                np.array(expected, dtype=float).reshape(np.shape(steps)).tobytes()
            alone = noise.delta(steps)
            assert type(alone) is (float if isinstance(steps, int) else np.ndarray)
            assert np.array(alone).tobytes() == row.tobytes()

    def test_column_is_a_tuple_of_floats(self):
        noise = NoiseModel([0, 1e-3, np.float64(2e-2)], seed=1, stream_id=2)
        assert noise.sigma == (0.0, 1e-3, 2e-2)
        assert all(type(s) is float for s in noise.sigma)
        assert noise == NoiseModel((0.0, 1e-3, 2e-2), seed=1, stream_id=2)
        assert hash(noise) == hash(NoiseModel((0.0, 1e-3, 2e-2), 1, 2))
        assert noise.substream(4).sigma == noise.sigma
        assert NoiseModel((), seed=1).delta(np.arange(3)).shape == (0, 3)

    @pytest.mark.parametrize("sigma", [((1e-3,), (2e-3,)), [[0.0]], (0.0, -1e-3),
                                       (1e-3, np.nan), (np.inf,)])
    def test_rejects_bad_column(self, sigma):
        with pytest.raises(ValueError, match="finite and >= 0"):
            NoiseModel(sigma, seed=1)

    @pytest.mark.parametrize("step", [1.5, np.array([0.0, 1.0])])
    def test_rejects_non_integer_steps(self, step):
        with pytest.raises(TypeError, match="integers"):
            NoiseModel(0.1, seed=1).delta(step)

    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("stream_id", 2.0),
                                             ("seed", "1"), ("stream_id", None),
                                             ("seed", True), ("stream_id", True)])
    def test_rejects_non_integer_seed_and_stream(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            NoiseModel(0.1, **{"seed": 1, "stream_id": 0, field: value})

    def test_numpy_integer_seed_and_stream_draw_as_python_ints(self):
        noise = NoiseModel(0.1, seed=np.int64(7), stream_id=np.uint64(3))
        assert noise == NoiseModel(0.1, seed=7, stream_id=3)
        assert type(noise.seed) is int and type(noise.stream_id) is int
        assert noise.delta(2) == NoiseModel(0.1, seed=7, stream_id=3).delta(2)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1, seed=1)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(sigma, seed=1)


class TestGateToGenerator:
    def test_identity_gate_zero_generator(self):
        # Mix(0, pi) is the 2x2 identity
        H = gate_to_generator(GateSpec("mix", 0, theta=0.0, phi=np.pi))
        assert np.abs(H).max() < 1e-12

    def test_swap_eigenvalues(self):
        H = gate_to_generator(GateSpec("swap", 0))
        assert np.allclose(np.linalg.eigvalsh(H), [0.0, np.pi], atol=1e-12)
        U = _expmi(H)
        assert np.abs(U - gate_matrix(GateSpec("swap", 0))).max() < 1e-10

    def test_two_point_dft_round_trip(self):
        g = GateSpec("mix", 0, theta=np.pi / 4, phi=0.0)
        assert np.abs(gate_matrix(g) - dft2_oracle()).max() < 1e-12
        assert np.abs(_expmi(gate_to_generator(g)) - dft2_oracle()).max() < 1e-10

    def test_phase_gate(self):
        H = gate_to_generator(GateSpec("phase", 0, lam=0.4))
        assert H.shape == (1, 1)
        assert H[0, 0] == pytest.approx(-0.4)

    def test_hermitian(self):
        for g in circuit.build_generic_qqft(5).gates:
            H = gate_to_generator(g)
            assert np.abs(H - H.conj().T).max() < 1e-12

    def test_round_trip_all_kinds(self):
        gates = [GateSpec("swap", 0),
                 GateSpec("mix", 0, theta=0.3, phi=-1.2),
                 GateSpec("mix", 0, theta=np.pi / 4, phi=2.9),
                 GateSpec("phase", 0, lam=2.2)]
        for g in gates:
            U = gate_matrix(g)
            assert np.abs(_expmi(gate_to_generator(g)) - U).max() < 1e-10


def _expmi(H):
    w, Q = np.linalg.eigh(H)
    return (Q * np.exp(-1j * w)) @ Q.conj().T


class TestApplyNoisySequence:
    def test_sigma_zero_identical_to_plain_product(self):
        seq = circuit.build_radix2_qqft(3)
        assert apply_noisy_sequence(seq).shape == (1, 8, 8)
        assert np.array_equal(apply_noisy_sequence(seq)[0],
                              sequence_to_unitary(seq))
        noise = NoiseModel(0.0, seed=5)
        assert np.array_equal(apply_noisy_sequence(seq, [noise])[0],
                              sequence_to_unitary(seq))

    @pytest.mark.parametrize("sigma", [1e-3, 3e-2, 0.3])
    def test_unitary_at_any_sigma(self, sigma):
        seq = circuit.build_generic_qqft(6)
        for r in range(3):
            U, = apply_noisy_sequence(seq, [NoiseModel(sigma, seed=11, stream_id=r)])
            assert unitarity_defect(U) < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seq=st.one_of(
               st.builds(circuit.build_generic_qqft, st.integers(2, 40)),
               st.builds(circuit.build_radix2_qqft, st.integers(1, 5)),
               free_sequences()),
           # 5e-324 underflows most draws to exactly 0, which keeps a gate exact
           sigma=st.sampled_from([0.0, 5e-324, 1e-3, 2e-2, 0.3]),
           seed=WORDS, stream=WORDS, invert=st.booleans())
    def test_wave_kernel_matches_per_gate_reference(self, seq, sigma, seed,
                                                    stream, invert):
        noise = NoiseModel(sigma, seed=seed, stream_id=stream)
        U, = apply_noisy_sequence(seq, [noise], invert=invert)
        assert U.tobytes() == per_gate_reference(seq, noise, invert).tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seq=st.one_of(
               st.builds(circuit.build_generic_qqft, st.integers(2, 40)),
               st.builds(circuit.build_radix2_qqft, st.integers(1, 5))),
           sigma=st.sampled_from([0.0, 5e-324, 1e-3, 2e-2, 0.3]),
           seed=WORDS, stream=WORDS, invert=st.booleans())
    @example(seq=circuit.build_generic_qqft(33), sigma=0.3, seed=1, stream=2,
             invert=True)
    def test_wave_kernel_near_matmul_product(self, seq, sigma, seed, stream,
                                             invert):
        # the elementwise kernel against `block @ rows`: roundoff only
        noise = NoiseModel(sigma, seed=seed, stream_id=stream)
        U, = apply_noisy_sequence(seq, [noise], invert=invert)
        want = per_gate_reference(seq, noise, invert, matmul=True)
        assert np.abs(U - want).max() < 1e-13

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seq=st.one_of(
               st.builds(circuit.build_generic_qqft, st.integers(2, 40)),
               st.builds(circuit.build_radix2_qqft, st.integers(1, 5)),
               free_sequences()),
           column=SIGMA_COLUMNS, seed=WORDS, stream=WORDS,
           invert=st.booleans())
    @example(seq=circuit.build_generic_qqft(33), column=[0.0, 5e-324, 0.3, 0.3],
             seed=1, stream=2, invert=False)
    @example(seq=circuit.build_radix2_qqft(5), column=[2e-2, 0.0, 2e-2, 5e-324],
             seed=3, stream=4, invert=True)
    def test_batch_matches_one_at_a_time(self, seq, column, seed, stream,
                                         invert):
        noise = NoiseModel(tuple(column), seed=seed, stream_id=stream)
        U = apply_noisy_sequence(seq, [noise], invert=invert)
        assert U.shape == (len(column), seq.n_sites, seq.n_sites)
        for sigma, got in zip(column, U):
            alone, = apply_noisy_sequence(
                seq, [NoiseModel(sigma, seed=seed, stream_id=stream)], invert=invert)
            assert got.tobytes() == alone.tobytes()

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seq=st.one_of(
               st.builds(circuit.build_generic_qqft, st.integers(2, 40)),
               st.builds(circuit.build_radix2_qqft, st.integers(1, 5))),
           members=st.sampled_from([1, 3, 7, 21]), data=st.data(),
           seed=WORDS, invert=st.booleans())
    @example(seq=circuit.build_generic_qqft(33), members=21, data=None,
             seed=1, invert=False)
    @example(seq=circuit.build_radix2_qqft(4), members=7, data=None,
             seed=2, invert=True)
    def test_stack_matches_each_column_alone(self, seq, members, data, seed,
                                             invert):
        # a block of columns on different streams, `members` sigmas in all
        if data is None:  # the examples: columns of 6, the last one shorter
            sizes = [min(6, members - i) for i in range(0, members, 6)]
            sigmas = [0.0, 5e-324, 1e-3, 2e-2, 0.3, 0.3] * 4
            columns = [tuple(sigmas[:k]) for k in sizes]
            streams = range(len(columns))
        else:
            columns, left = [], members
            while left:
                columns.append(tuple(data.draw(SIGMA_COLUMNS.filter(
                    lambda c: len(c) <= left))))
                left -= len(columns[-1])
            streams = data.draw(st.lists(WORDS, min_size=len(columns),
                                         max_size=len(columns), unique=True))
        stack = [NoiseModel(c, seed=seed, stream_id=r)
                 for c, r in zip(columns, streams)]
        U = apply_noisy_sequence(seq, stack, invert=invert)
        alone = [apply_noisy_sequence(seq, [m], invert=invert) for m in stack]
        assert U.shape == (members, seq.n_sites, seq.n_sites)
        assert U.tobytes() == np.concatenate(alone).tobytes()

    def test_empty_batch(self):
        seq = circuit.build_generic_qqft(5)
        assert apply_noisy_sequence(seq, [NoiseModel((), seed=1)]).shape == (0, 5, 5)

    def test_one_draw_call_per_column(self, monkeypatch):
        calls = []
        delta = NoiseModel.delta
        monkeypatch.setattr(NoiseModel, "delta",
                            lambda self, step: calls.append(self) or delta(self, step))
        column = NoiseModel((0.0, 1e-2, 1e-2), seed=2, stream_id=5)
        apply_noisy_sequence(circuit.build_radix2_qqft(3), [column])
        assert calls == [column]
        calls.clear()
        engine.fourier_pair(8, [column], 2)     # one call per axis and direction
        assert calls == [column.substream(salts[k])
                         for salts in (engine._SALT_FORWARD, engine._SALT_INVERSE)
                         for k in (0, 1)]

    def test_one_draw_call_per_sequence(self, monkeypatch):
        calls = []
        delta = NoiseModel.delta
        monkeypatch.setattr(NoiseModel, "delta",
                            lambda self, step: calls.append(step) or delta(self, step))
        seq = circuit.build_radix2_qqft(4)
        apply_noisy_sequence(seq, [NoiseModel(1e-2, seed=1)], invert=True)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.arange(seq.depth))

    def test_bit_identical_repeats(self):
        seq = circuit.build_radix2_qqft(2)
        noise = NoiseModel(1e-2, seed=123, stream_id=4)
        assert np.array_equal(apply_noisy_sequence(seq, [noise]),
                              apply_noisy_sequence(seq, [noise]))

    def test_noiseless_inverse(self):
        seq = circuit.build_generic_qqft(5)
        U = sequence_to_unitary(seq)
        Ui, = apply_noisy_sequence(seq, invert=True)
        assert np.abs(Ui - U.conj().T).max() < 1e-12

    def test_noisy_inverse_unitary(self):
        seq = circuit.build_radix2_qqft(3)
        U, = apply_noisy_sequence(seq, [NoiseModel(0.1, seed=3)], invert=True)
        assert unitarity_defect(U) < 1e-10

    def test_same_layer_shares_draw(self):
        # a two-swap layer must scale both swaps by the same delta: the noisy
        # layer then equals the layer unitary raised to the power (1 + delta)
        gates = (GateSpec("swap", 0, layer=0), GateSpec("swap", 2, layer=0))
        seq = circuit.CircuitSequence(n_sites=4, gates=gates)
        noise = NoiseModel(0.2, seed=8)
        U, = apply_noisy_sequence(seq, [noise])
        delta = noise.delta(0)
        block = _expmi((1 + delta) * gate_to_generator(gates[0]))
        expected = np.eye(4, dtype=complex)
        expected[0:2, 0:2] = block
        expected[2:4, 2:4] = block
        assert np.abs(U - expected).max() < 1e-12

    def test_first_order_in_sigma(self):
        # same stream: || U(sigma) - U(0) || scales linearly for small sigma
        seq = circuit.build_radix2_qqft(3)
        U0 = sequence_to_unitary(seq)
        norms = {}
        for sigma in (1e-5, 1e-4, 1e-3):
            U, = apply_noisy_sequence(seq, [NoiseModel(sigma, seed=21, stream_id=2)])
            norms[sigma] = np.abs(U - U0).max()
        slope_a = norms[1e-4] / norms[1e-5]
        slope_b = norms[1e-3] / norms[1e-4]
        assert slope_a == pytest.approx(10.0, rel=0.05)
        assert slope_b == pytest.approx(10.0, rel=0.05)
        assert norms[1e-3] / 1e-3 < 50.0  # finite slope


class TestBlockContract:
    """Each model of a block adds one member per sigma, in order, and every
    member is bit for bit its own one-member block."""

    @pytest.mark.parametrize("invert", [False, True])
    def test_apply_noisy_sequence_members_in_order(self, invert):
        seq = circuit.build_generic_qqft(7)
        U = apply_noisy_sequence(seq, MIXED_BLOCK, invert=invert)
        assert U.shape == (len(MIXED_MEMBERS), 7, 7)
        for got, member in zip(U, MIXED_MEMBERS):
            alone = apply_noisy_sequence(seq, [member], invert=invert)
            assert got.tobytes() == alone.tobytes()
        assert U[0].tobytes() == U[1].tobytes() != U[2].tobytes()

    @pytest.mark.parametrize("N", [6, 8])    # generic and radix-2 routes
    @pytest.mark.parametrize("axis", [0, 1])
    def test_fourier_pair_members_in_order(self, N, axis):
        # both axes of every member in one pass per direction: each (axis,
        # member) is that axis of the member's own pair, with as few axes
        # as reach it
        pair = engine.fourier_pair(N, MIXED_BLOCK, 2)
        for i, member in enumerate(MIXED_MEMBERS):
            alone = engine.fourier_pair(N, [member], axis + 1)
            for got, want in zip(pair, alone):     # forward, then inverse
                assert got.shape == (2, len(MIXED_MEMBERS), N, N)
                assert want.shape == (axis + 1, 1, N, N)
                assert got[axis, i].tobytes() == want[axis, 0].tobytes()
        for V in pair[0][axis], pair[1][axis]:  # noisy members differ from clean
            assert V[0].tobytes() == V[1].tobytes() != V[2].tobytes()
            assert V[3].tobytes() not in (V[0].tobytes(), V[2].tobytes())
        for V in pair:  # the two axes draw from their own streams
            assert V[0, 2].tobytes() != V[1, 2].tobytes()

    @pytest.mark.parametrize("N", [33, 16])     # generic and radix-2 routes
    @pytest.mark.parametrize("invert", [False, True])
    def test_wide_block_matches_per_gate_reference(self, N, invert):
        seq = circuit.compile_for_size(N)
        U = apply_noisy_sequence(seq, WIDE_BLOCK, invert=invert)
        members = [replace(m, sigma=s) for m in WIDE_BLOCK for s in m.sigma]
        assert U.shape == (20, N, N) and len(members) == 20
        for got, member in zip(U, members):
            alone = apply_noisy_sequence(seq, [member], invert=invert)
            assert got.tobytes() == alone.tobytes()
            assert got.tobytes() == per_gate_reference(seq, member,
                                                       invert).tobytes()

    @pytest.mark.parametrize("seq", [circuit.build_generic_qqft(6),
                                     circuit.build_radix2_qqft(3)])
    @pytest.mark.parametrize("invert", [False, True])
    def test_empty_block_has_no_members(self, seq, invert):
        n = seq.n_sites
        assert apply_noisy_sequence(seq, [], invert=invert).shape == (0, n, n)

    def test_empty_block_fourier_pair_and_diagonal_scale(self):
        for d in (1, 2):
            assert [V.shape for V in engine.fourier_pair(6, [], d)] == [(d, 0, 6, 6)] * 2
        scales = engine.diagonal_scale([])
        assert scales.shape == (0,) and scales.dtype == float

    # the block's tail too: its scales are not a palindrome
    @pytest.mark.parametrize("start", [0, 1])
    def test_diagonal_scale_members_in_order(self, start):
        scales = engine.diagonal_scale(MIXED_BLOCK[start:])
        draw = MIXED_MEMBERS[2].substream(engine._SALT_DIAGONAL).delta(0)
        assert draw != 0.0
        assert scales.tolist() == [1.0, 1.0, 1.0 + draw, 1.0][start:]
        for scale, member in zip(scales, MIXED_MEMBERS[start:]):
            assert scale.tobytes() == engine.diagonal_scale([member]).tobytes()


class TestZeroSigmaIsStreamFree:
    """A zero sigma draws only (signed) zeros, so its result is the same on
    every stream, which lets `engine._noise_sweep` measure it once."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(seed=WORDS, stream=WORDS,
           N=st.sampled_from([3, 4, 6, 8]),    # generic and radix-2 routes
           d=st.sampled_from([1, 2]),
           sigma=st.sampled_from([0.0, (0.0,), (0.0, 0.0)]))
    @example(seed=1, stream=0, N=8, d=1, sigma=0.0)    # draws a -0.0
    def test_fourier_pair_same_on_every_stream(self, seed, stream, N, d,
                                               sigma):
        clean = engine.fourier_pair(N, engine.NOISELESS, d)
        for noise in (NoiseModel(sigma, seed, stream), NoiseModel(sigma, seed)):
            pair = engine.fourier_pair(N, [noise], d)
            for got, want in zip(pair, clean):     # forward, then inverse
                want = np.broadcast_to(want, got.shape)
                assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=WORDS, stream=WORDS)
    @example(seed=1, stream=0)                            # draws a -0.0
    def test_diagonal_scale_is_exactly_one(self, seed, stream):
        noise = NoiseModel(0.0, seed, stream, diagonal=True)
        assert noise.substream(engine._SALT_DIAGONAL).delta(0) == 0.0
        scale, = engine.diagonal_scale([noise])
        assert scale == 1.0 and not np.signbit(scale)
        assert engine.diagonal_scale([NoiseModel((0.0, 0.0), seed, stream,
                                                 diagonal=True)]).tolist() == [1.0, 1.0]

    def test_example_draws_a_negative_zero(self):
        draw = NoiseModel(0.0, 1, 0).substream(engine._SALT_DIAGONAL).delta(0)
        assert draw == 0.0 and np.signbit(draw)


def gate_to_generator(gate):
    """Principal-branch Hermitian generator H with exp(-i H) = the gate's
    matrix on its own 1- or 2-site block."""
    E, Z = unitary_eig(gate_matrix(gate))
    return (Z * E) @ Z.conj().T


def diagonal_momentum_evolution(model, scale=1.0):
    """The diagonal step as one dense block-diagonal matrix."""
    return scipy.linalg.block_diag(*model.diagonal_blocks(scale))


class TestDiagonalMomentumEvolution:
    def test_zero_hamiltonian(self):
        model = MomentumModel(d=1, l=1, grid=4,
                              hamiltonian=lambda: np.zeros((4, 1, 1)), T=0.7)
        assert np.abs(diagonal_momentum_evolution(model) - np.eye(4)).max() == 0.0

    def test_scalar_blocks_give_diagonal_phases(self):
        energies = [0.3, -1.1, 0.7, 2.4]
        model = MomentumModel(d=1, l=1, grid=4,
                              hamiltonian=lambda: np.reshape(energies, (4, 1, 1)),
                              T=0.5)
        U = diagonal_momentum_evolution(model)
        expected = np.diag(np.exp(-1j * 0.5 * np.array(energies)))
        assert np.abs(U - expected).max() < 1e-12

    def test_pauli_block_eigenphases(self):
        # H = d . sigma with |d| = w0: each block has eigenphases -+ w0 T
        d = np.array([1.2, -0.4, 2.0])
        w0 = np.linalg.norm(d)
        sig = [np.array([[0, 1], [1, 0]], complex),
               np.array([[0, -1j], [1j, 0]], complex),
               np.array([[1, 0], [0, -1]], complex)]
        block = sum(di * s for di, s in zip(d, sig))
        model = MomentumModel(d=1, l=2, grid=2, T=0.3,
                              hamiltonian=lambda: np.array([block] * 2))
        U = diagonal_momentum_evolution(model)
        phases = np.sort(np.angle(np.linalg.eigvals(U[:2, :2])))
        assert np.allclose(phases, [-w0 * 0.3, w0 * 0.3], atol=1e-12)

    def test_non_hermitian_rejected(self):
        model = MomentumModel(d=1, l=2, grid=2,
                              hamiltonian=lambda: np.array([[[0, 1], [0, 0]]] * 2,
                                                           dtype=complex))
        with pytest.raises(ValueError):
            diagonal_momentum_evolution(model)

    def test_cached_matches_fresh_bit_for_bit(self):
        # reference: each block's eigendecomposition redone on every call
        rng = np.random.default_rng(4)
        blocks = rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2))
        blocks = blocks + blocks.conj().swapaxes(1, 2)
        model = MomentumModel(d=2, l=2, grid=3, T=0.4, hamiltonian=lambda: blocks)
        for scale in (1.0, 1.03, 1.0):
            fresh = []
            for H in blocks:
                w, Q = np.linalg.eigh(H)
                fresh.append((Q * np.exp(-1j * w * 0.4 * scale)) @ Q.conj().T)
            got = model.diagonal_blocks(scale=scale)
            assert np.array_equal(got, np.array(fresh))

    def test_hamiltonian_runs_once_per_model(self):
        calls = []

        def hamiltonian():
            calls.append(1)
            return np.arange(4.0).reshape(4, 1, 1)

        model = MomentumModel(d=1, l=1, grid=4, hamiltonian=hamiltonian)
        for scale in (1.0, 1.1, 0.9):
            model.diagonal_blocks(scale=scale)
        assert calls == [1]


GLIBC_MALLOPT = (platform.libc_ver()[0] == "glibc"
                 and hasattr(ctypes.CDLL(None), "mallopt"))


@pytest.mark.skipif(not GLIBC_MALLOPT, reason="needs glibc's mallopt")
class TestFreedMemoryStaysInProcess:
    """`engine._keep_freed_memory`: a sweep's freed arrays stay in the
    heap, so a repeated sweep reuses them instead of faulting pages in
    again (about 2000 minor faults per Poincare sweep without it)."""

    def test_policy_taken(self):
        assert engine._keep_freed_memory()

    @pytest.mark.parametrize("call", [
        "next(poincare.greens_function(poincare.build_dispersion(6, 2)))",
        "next(protocol.build_protocol_unitary(protocol.MomentumModel("
        "d=1, l=1, grid=4, hamiltonian=lambda: np.ones((4, 1, 1)))))"])
    def test_library_call_without_sweep_takes_policy(self, call):
        out = run_fresh(f"""
            import numpy as np
            from qqft import engine, poincare, protocol
            before = engine._keep_freed_memory.cache_info().currsize
            {call}
            print(before, engine._keep_freed_memory.cache_info().currsize)
        """)
        assert out.split() == ["0", "1"]

    def test_repeated_poincare_sweep_takes_few_faults(self):
        disp = poincare.build_dispersion(33, 2)
        noise = NoiseModel((0.0, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2), seed=3)
        poincare.noise_sweep_symmetry(disp, noise, 10)  # warm-up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        poincare.noise_sweep_symmetry(disp, noise, 10)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 200
