from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qqft import circuit, engine, haldane, protocol
from qqft.engine import (
    MAX_DIM,
    NoiseModel,
    apply_noisy_sequence,
    unitarity_defect,
)
from qqft.protocol import (
    MomentumModel,
    PhaseWrapError,
    T_DEFAULT,
    build_protocol_unitary,
    estimate_runtime,
    extract_spectrum,
    gate_time,
)
from test_engine import MIXED_BLOCK, MIXED_MEMBERS, diagonal_momentum_evolution

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
SIGMAS = st.sampled_from([0.0, 1e-3, 2.5e-3, 5e-3, 3e-2])


def plane_wave_oracle(energies, T):
    """U = sum_m exp(-i E_m T) |k_m><k_m| from explicit plane-wave vectors."""
    N = len(energies)
    U = np.zeros((N, N), dtype=complex)
    for m in range(N):
        k = np.exp(2j * np.pi * np.arange(N) * m / N) / np.sqrt(N)
        U += np.exp(-1j * energies[m] * T) * np.outer(k, k.conj())
    return U


def diagonal_model(energies, T):
    return MomentumModel(d=1, l=1, grid=len(energies), T=T,
                         hamiltonian=lambda: np.reshape(energies, (-1, 1, 1)))


class TestBuildProtocolUnitary:
    def test_zero_hamiltonian_gives_identity(self):
        model = MomentumModel(d=1, l=1, grid=8,
                              hamiltonian=lambda: np.zeros((8, 1, 1)))
        U, = build_protocol_unitary(model)
        assert np.abs(U - np.eye(8)).max() < 1e-12

    def test_zero_hamiltonian_2d_two_orbitals(self):
        model = MomentumModel(d=2, l=2, grid=4,
                              hamiltonian=lambda: np.zeros((16, 2, 2)))
        U, = build_protocol_unitary(model)
        assert np.abs(U - np.eye(32)).max() < 1e-12

    def test_eigenphases_are_diagonal_spectrum(self):
        energies = [0.9, -0.3, 1.7, 0.2, -1.1, 0.0, 0.4, 2.0]
        model = diagonal_model(energies, T=0.25)
        U, = build_protocol_unitary(model)
        got = np.sort(np.angle(np.linalg.eigvals(U)))
        expected = np.sort(np.angle(np.exp(-1j * 0.25 * np.array(energies))))
        assert np.abs(got - expected).max() < 1e-9

    def test_plane_wave_oracle_n4(self):
        energies = [0.5, -1.0, 2.2, 0.1]
        model = diagonal_model(energies, T=0.4)
        U, = build_protocol_unitary(model)
        assert np.abs(U - plane_wave_oracle(energies, 0.4)).max() < 1e-10

    def test_generic_grid_size(self):
        energies = [0.3, -0.7, 1.1]
        model = diagonal_model(energies, T=0.4)
        U, = build_protocol_unitary(model)
        assert np.abs(U - plane_wave_oracle(energies, 0.4)).max() < 1e-10

    def test_spectrum_invariant_under_conjugation(self):
        model = haldane.momentum_model(
            haldane.HaldaneParams(phi=-np.pi / 2, M=0.0), grid=4)
        U, = build_protocol_unitary(model)
        Ud = diagonal_momentum_evolution(model)
        got = np.sort(np.angle(np.linalg.eigvals(U)))
        expected = np.sort(np.angle(np.linalg.eigvals(Ud)))
        assert np.abs(got - expected).max() < 1e-9

    def test_noisy_assembly_is_unitary(self):
        model = haldane.momentum_model(
            haldane.HaldaneParams(phi=-np.pi / 2, M=0.0), grid=4)
        for flag in (False, True):
            U, = build_protocol_unitary(model, [NoiseModel(0.05, seed=3,
                                                           diagonal=flag)])
            assert unitarity_defect(U) < 1e-10

    def test_noise_on_diagonal_changes_result(self):
        model = haldane.momentum_model(
            haldane.HaldaneParams(phi=-np.pi / 2, M=0.0), grid=4)
        noise = NoiseModel(0.05, seed=3)
        U_off, U_on = build_protocol_unitary(model, [noise, replace(noise, diagonal=True)])
        assert np.abs(U_on - U_off).max() > 1e-4

    def test_unsupported_dimension(self):
        model = MomentumModel(d=3, l=1, grid=2,
                              hamiltonian=lambda: np.zeros((8, 1, 1)))
        with pytest.raises(ValueError):
            build_protocol_unitary(model)


class TestEvolutionBlock:
    """One evolution per member of the block, in order, each bit for bit
    its own one-member block, from two kernel passes."""

    @pytest.mark.parametrize("d,l,grid", [(1, 2, 6), (1, 1, 8), (2, 2, 4),
                                          (2, 1, 3)])
    def test_members_match_one_member_blocks(self, d, l, grid):
        model = random_hermitian_model(d, l, grid)
        got = list(build_protocol_unitary(model, MIXED_BLOCK))
        assert len(got) == len(MIXED_MEMBERS)
        for U, member in zip(got, MIXED_MEMBERS):
            alone, = build_protocol_unitary(model, [member])
            assert U.tobytes() == alone.tobytes()
        # the clean member and the zero sigma with noise on the diagonal
        # agree; every noisy member differs
        assert got[0].tobytes() == got[1].tobytes()
        assert len({U.tobytes() for U in got[1:]}) == 3

    @pytest.mark.parametrize("d,grid", [(1, 8), (2, 4)])
    @pytest.mark.parametrize("block", [engine.NOISELESS, MIXED_BLOCK,
                                       [NoiseModel((1e-3, 2e-3, 0.0), 4)] * 3],
                             ids=["noiseless", "mixed", "nine"])
    def test_two_kernel_passes_per_build(self, monkeypatch, d, grid, block):
        calls = []
        apply = engine.apply_noisy_sequence
        monkeypatch.setattr(engine, "apply_noisy_sequence",
                            lambda *a, **k: calls.append(1) or apply(*a, **k))
        model = random_hermitian_model(d, 1, grid)
        assert len(list(build_protocol_unitary(model, block))) == sum(
            np.size(m.sigma) for m in block)
        assert len(calls) == 2

    def test_evolutions_built_when_reached(self, monkeypatch):
        built = []
        blocks = MomentumModel.diagonal_blocks
        monkeypatch.setattr(MomentumModel, "diagonal_blocks",
                            lambda *a: built.append(1) or blocks(*a))
        evolutions = build_protocol_unitary(random_hermitian_model(2, 2, 4),
                                            MIXED_BLOCK)
        assert built == []
        next(evolutions)
        assert built == [1]

    def test_raising_member_leaves_the_next(self):
        # a model that cannot be flattened raises in every member's diagonal
        # step; each call raises, and the block ends after its last member
        def hamiltonian():
            raise haldane.SingularPointError("d vanishes")

        model = MomentumModel(d=2, l=2, grid=4, hamiltonian=hamiltonian)
        evolutions = build_protocol_unitary(model, [NoiseModel(1e-2, 1, r)
                                                    for r in range(3)])
        for _ in range(3):
            with pytest.raises(haldane.SingularPointError):
                next(evolutions)
        assert next(evolutions, None) is None

    def test_empty_block_gives_no_evolutions(self):
        assert list(build_protocol_unitary(random_hermitian_model(2, 2, 4), [])) == []


def random_hermitian_model(d, l, grid, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid ** d, l, l)
    blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    blocks = blocks + blocks.conj().swapaxes(1, 2)
    return MomentumModel(d=d, l=l, grid=grid, T=0.2, hamiltonian=lambda: blocks)


def dense_kron_reference(model, noise):
    """V_f U_d V_i from dense Kronecker products of the same noisy factors."""
    seq = circuit.compile_for_size(model.grid)

    def factors(salts, invert):
        mats = [apply_noisy_sequence(seq, [noise.substream(salts[k])], invert=invert)[0]
                for k in range(model.d)]
        return reduce(np.kron, mats + [np.eye(model.l)])

    scale = 1.0
    if noise.diagonal and noise.sigma > 0:
        scale = 1.0 + noise.substream(engine._SALT_DIAGONAL).delta(0)
    U_d = diagonal_momentum_evolution(model, scale=scale)
    return (factors(engine._SALT_FORWARD, False) @ U_d
            @ factors(engine._SALT_INVERSE, True))


class TestKroneckerAssembly:
    def test_two_point_pair_matches_2d_dft(self):
        # row-major composite (x, y): brute-force 2D transform on a 2x2 grid
        energies = np.array([[0.9, -0.3], [1.7, 0.2]])
        model = MomentumModel(d=2, l=1, grid=2, T=0.5,
                              hamiltonian=lambda: energies.reshape(4, 1, 1))
        oracle = np.zeros((4, 4), dtype=complex)
        for x in range(2):
            for y in range(2):
                for xp in range(2):
                    for yp in range(2):
                        oracle[2 * x + y, 2 * xp + yp] = (
                            (-1) ** (x * xp) * (-1) ** (y * yp) / 2
                        )
        phases = np.exp(-1j * 0.5 * energies.ravel())
        expected = (oracle * phases) @ oracle.conj().T
        U, = build_protocol_unitary(model)
        assert np.abs(U - expected).max() < 1e-12

    def test_max_dimension_guard(self):
        def hamiltonian():
            raise AssertionError("hamiltonian called for an oversized model")

        model = MomentumModel(d=2, l=2, grid=46, hamiltonian=hamiltonian)
        assert model.dim > MAX_DIM
        with pytest.raises(ValueError, match="exceeds"):
            build_protocol_unitary(model)

    @pytest.mark.parametrize("d,l,grid", [(1, 1, 8), (1, 2, 3), (2, 1, 4),
                                          (2, 2, 4)])
    @pytest.mark.parametrize("diagonal", [False, True])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, sigma=SIGMAS)
    def test_matches_dense_kron_reference(self, d, l, grid, diagonal,
                                          seed, sigma):
        model = random_hermitian_model(d, l, grid)
        noise = NoiseModel(sigma, seed, stream_id=seed % 7, diagonal=diagonal)
        got, = build_protocol_unitary(model, [noise])
        ref = dense_kron_reference(model, noise)
        assert np.abs(got - ref).max() < 1e-12


class TestExtractSpectrum:
    def test_identity_all_zero(self):
        spec = extract_spectrum(np.eye(6), T=0.5, l=2)
        assert np.abs(spec.energies).max() == 0.0
        assert spec.band_width == 0.0

    def test_flat_band_energies(self):
        p = haldane.HaldaneParams(phi=-np.pi / 2, M=0.0)
        model = haldane.momentum_model(p, grid=4)
        U, = build_protocol_unitary(model)
        spec = extract_spectrum(U, model.T, model.l)
        norm = p.target_norm
        assert np.abs(spec.band(0) + norm).max() < 1e-9
        assert np.abs(spec.band(1) - norm).max() < 1e-9
        assert spec.band_width < 1e-9
        assert spec.band_gap == pytest.approx(2 * norm, abs=1e-9)

    def test_round_trip_diagonal(self):
        energies = np.array([0.9, -0.3, 1.7, 0.2, -1.1, 0.0, 0.4, 2.0])
        model = diagonal_model(energies, T=0.25)
        U, = build_protocol_unitary(model)
        spec = extract_spectrum(U, 0.25, l=1)
        assert np.abs(spec.energies - np.sort(energies)).max() < 1e-9

    def test_gap_and_width_identities(self):
        rng = np.random.default_rng(5)
        energies = np.sort(rng.uniform(-2, 2, size=12))
        spec = extract_spectrum(np.diag(np.exp(-1j * 0.3 * energies)),
                                T=0.3, l=2)
        lower, upper = spec.band(0), spec.band(1)
        assert spec.band_gap == pytest.approx(upper.min() - lower.max())
        assert spec.band_width == pytest.approx(lower.max() - lower.min())

    def test_wrapped_phase_rejected(self):
        U = np.diag([np.exp(1j * np.pi), 1.0])
        with pytest.raises(PhaseWrapError):
            extract_spectrum(U, T=1.0, l=1)

    def test_exact_branch_cut_rejected(self):
        # I + U exactly singular
        with pytest.raises(PhaseWrapError):
            extract_spectrum(np.diag([-1.0, 1.0]), T=1.0, l=1)

    def test_non_finite_rejected(self):
        with pytest.raises(PhaseWrapError):
            extract_spectrum(np.diag([np.nan, 1.0]), T=1.0, l=1)

    @pytest.mark.parametrize("U", [0.5 * np.eye(4),
                                   np.array([[1.0, 0.1], [0.0, 1.0]]),
                                   np.diag([1.0, np.exp(0.3j) * (1 + 1e-6)])])
    def test_non_unitary_rejected(self, U):
        with pytest.raises(ValueError, match="not unitary"):
            extract_spectrum(U, T=1.0, l=1)

    @pytest.mark.parametrize("grid", [4, 16])
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, sigma=SIGMAS)
    def test_matches_general_eigensolver(self, grid, seed, sigma):
        model = haldane.momentum_model(
            haldane.HaldaneParams(phi=-np.pi / 2, M=0.0), grid=grid)
        U, = build_protocol_unitary(model, [NoiseModel(sigma, seed)])
        spec = extract_spectrum(U, model.T, model.l)
        ref = np.sort(-np.angle(np.linalg.eigvals(U)) / model.T)
        assert np.abs(spec.energies - ref).max() < 1e-12

    def test_band_gap_needs_two_bands(self):
        spec = extract_spectrum(np.eye(4), T=1.0, l=1)
        with pytest.raises(ValueError):
            spec.band_gap


def unitary_with_phases(theta, seed):
    """Q diag(exp(i theta)) Q^dag with a random unitary Q."""
    rng = np.random.default_rng(seed)
    n = len(theta)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (Q * np.exp(1j * np.asarray(theta))) @ Q.conj().T


def fallback_calls(U):
    """(energies of `extract_spectrum(U, 1, 1)`, calls of the fallback
    `_arctan2_phases`)."""
    calls = []
    fallback = protocol._arctan2_phases

    def spy(*args, **kwargs):
        calls.append(1)
        return fallback(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_arctan2_phases", spy)
        return extract_spectrum(U, T=1.0, l=1).energies, len(calls)


def reference_energies(U):
    return np.sort(-np.angle(np.linalg.eigvals(U)))


def refuses_as_not_unitary(measure, V, model):
    """Whether `measure(V, model.T, model.l)` raises "not unitary"; any other
    outcome (a result, a closed gap, a wrapped phase) is False."""
    try:
        measure(V, model.T, model.l)
    except ValueError as err:
        return "not unitary" in str(err)
    return False


SINE_PHASES = st.lists(st.floats(min_value=-1.4, max_value=1.4),
                       min_size=1, max_size=24)
# eigenphases clear of 0, so that their mirror images pi - theta stay clear
# of the branch cut
OFF_ZERO = st.floats(min_value=0.05, max_value=1.4).flatmap(
    lambda t: st.sampled_from([t, -t]))


class TestSineRoute:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(theta=SINE_PHASES, seed=SEEDS)
    def test_agrees_with_general_eigensolver(self, theta, seed):
        U = unitary_with_phases(theta, seed)
        energies, calls = fallback_calls(U)
        assert calls == 0
        assert np.abs(energies - reference_energies(U)).max() < 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(pairs=st.lists(OFF_ZERO, min_size=1, max_size=8),
           rest=st.lists(st.floats(min_value=-1.4, max_value=1.4), max_size=8),
           seed=SEEDS)
    def test_mirrored_pairs_fall_back(self, pairs, rest, seed):
        # theta and pi - theta share a sine: arcsin alone would return theta twice
        theta = pairs + [np.angle(-np.exp(-1j * t)) for t in pairs] + rest
        U = unitary_with_phases(theta, seed)
        energies, calls = fallback_calls(U)
        assert calls == 1
        assert np.abs(energies - np.sort(-np.asarray(theta))).max() < 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(top=st.floats(min_value=np.pi / 2, max_value=np.pi - protocol.WRAP_MARGIN,
                         exclude_min=True),
           sign=st.sampled_from([1.0, -1.0]), rest=SINE_PHASES, seed=SEEDS)
    def test_phases_past_half_pi_fall_back(self, top, sign, rest, seed):
        theta = [sign * top] + rest
        U = unitary_with_phases(theta, seed)
        energies, calls = fallback_calls(U)
        assert calls == 1
        assert np.abs(energies - np.sort(-np.asarray(theta))).max() < 1e-12

    @pytest.mark.parametrize("distance", [1e-3, 1e-5, 2e-6])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_near_the_cut(self, distance, sign):
        # the error of a Cayley map tan(theta / 2) grew like
        # eps / distance^2 here: 1e-10 at 1e-3, 1e-5 at 2e-6
        theta = [sign * (np.pi - distance), 0.4, -1.2, 2.0, -2.9, 1.1]
        for seed in range(5):
            U = unitary_with_phases(theta, seed)
            energies, calls = fallback_calls(U)
            assert calls == 1
            assert np.abs(energies - np.sort(-np.asarray(theta))).max() < 1e-12
            assert np.abs(energies - reference_energies(U)).max() < 1e-12

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(theta=st.lists(st.floats(min_value=-3.0, max_value=3.0),
                          min_size=1, max_size=24),
           exponent=st.floats(min_value=-6.0, max_value=-1.0), seed=SEEDS)
    def test_perturbed_unitary_rejected(self, theta, exponent, seed):
        n = len(theta)
        rng = np.random.default_rng(seed)
        E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        U = unitary_with_phases(theta, seed) @ (np.eye(n) + 10.0 ** exponent * E)
        with pytest.raises(ValueError, match="not unitary"):
            extract_spectrum(U, T=1.0, l=1)

    @pytest.mark.parametrize("kind", ["general", "hermitian", "antihermitian",
                                      "rank one", "entry", "scale"])
    @pytest.mark.parametrize("grid,sigma", [(2, 0.0), (4, 3e-2), (8, 5e-3)])
    def test_rejects_what_cayley_rejects(self, kind, grid, sigma):
        # the perturbations that the retired Cayley route's Hermiticity check
        # caught: the spectrum and the Bott index refuse the same ones
        model = haldane.momentum_model(
            haldane.HaldaneParams(phi=-np.pi / 2, M=0.0), grid=grid)
        U, = build_protocol_unitary(model, [NoiseModel(sigma, 3)])
        n = len(U)
        rng = np.random.default_rng(1)
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        v, w = G[:, 0], G[:, 1]
        E = {"general": G, "hermitian": G + G.conj().T,
             "antihermitian": G - G.conj().T, "rank one": np.outer(v, w.conj()),
             "entry": np.outer(np.eye(n)[n // 2], np.eye(n)[n // 3]), "scale": np.eye(n)}[kind]
        E = E / np.linalg.norm(E, 2)
        rejected = 0
        for eps in 10.0 ** np.arange(-2.0, -13.0, -1.0):
            V = U @ (np.eye(n) + eps * E)
            spectrum, bott = (refuses_as_not_unitary(measure, V, model)
                              for measure in (extract_spectrum, haldane.bott_index))
            assert spectrum == bott
            rejected += spectrum
        assert rejected

    def test_default_realization_takes_the_sine_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the arctan2 route was taken")

        model = haldane.momentum_model(
            haldane.HaldaneParams(phi=-np.pi / 2, M=0.0), grid=16)
        U, = build_protocol_unitary(model, [NoiseModel(5e-3, 1)])
        monkeypatch.setattr(protocol, "_arctan2_phases", refuse)
        spec = extract_spectrum(U, model.T, model.l)
        assert spec.band_gap > 0


class TestEstimateRuntime:
    def test_reference_32_sites(self):
        # depth 106 at a 0.995 ms step: about a tenth of a second
        assert gate_time(0.01) == pytest.approx(0.9952, abs=1e-4)
        assert estimate_runtime(5, 0.01) == pytest.approx(105.49, abs=0.01)

    def test_doubling_j_halves_duration(self):
        assert estimate_runtime(5, 0.02) == pytest.approx(
            estimate_runtime(5, 0.01) / 2)

    def test_n4(self):
        # depth formula gives 43 steps at n = 4
        assert estimate_runtime(4, 0.01) == pytest.approx(43 * gate_time(0.01))
        assert estimate_runtime(4, 0.01) == pytest.approx(42.79, abs=0.01)
