from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qqft import circuit, engine, haldane, protocol
from qqft.engine import (
    MAX_DIM,
    NoiseModel,
    apply_noisy_sequence,
    diagonal_momentum_evolution,
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
    return MomentumModel(d=1, l=1, grid=len(energies),
                         sampler=lambda m: np.array([[energies[m]]]), T=T)


class TestBuildProtocolUnitary:
    def test_zero_hamiltonian_gives_identity(self):
        model = MomentumModel(d=1, l=1, grid=8,
                              sampler=lambda m: np.zeros((1, 1)))
        U = build_protocol_unitary(model)
        assert np.abs(U - np.eye(8)).max() < 1e-12

    def test_zero_hamiltonian_2d_two_orbitals(self):
        model = MomentumModel(d=2, l=2, grid=4,
                              sampler=lambda a, b: np.zeros((2, 2)))
        U = build_protocol_unitary(model)
        assert np.abs(U - np.eye(32)).max() < 1e-12

    def test_eigenphases_are_diagonal_spectrum(self):
        energies = [0.9, -0.3, 1.7, 0.2, -1.1, 0.0, 0.4, 2.0]
        model = diagonal_model(energies, T=0.25)
        U = build_protocol_unitary(model)
        got = np.sort(np.angle(np.linalg.eigvals(U)))
        expected = np.sort(np.angle(np.exp(-1j * 0.25 * np.array(energies))))
        assert np.abs(got - expected).max() < 1e-9

    def test_plane_wave_oracle_n4(self):
        energies = [0.5, -1.0, 2.2, 0.1]
        model = diagonal_model(energies, T=0.4)
        U = build_protocol_unitary(model)
        assert np.abs(U - plane_wave_oracle(energies, 0.4)).max() < 1e-10

    def test_generic_grid_size(self):
        energies = [0.3, -0.7, 1.1]
        model = diagonal_model(energies, T=0.4)
        U = build_protocol_unitary(model)
        assert np.abs(U - plane_wave_oracle(energies, 0.4)).max() < 1e-10

    def test_spectrum_invariant_under_conjugation(self):
        model = haldane.momentum_model(
            haldane.HaldaneParams(phi=-np.pi / 2, M=0.0), grid=4)
        U = build_protocol_unitary(model)
        Ud = diagonal_momentum_evolution(model)
        got = np.sort(np.angle(np.linalg.eigvals(U)))
        expected = np.sort(np.angle(np.linalg.eigvals(Ud)))
        assert np.abs(got - expected).max() < 1e-9

    def test_noisy_assembly_is_unitary(self):
        model = haldane.momentum_model(
            haldane.HaldaneParams(phi=-np.pi / 2, M=0.0), grid=4)
        for flag in (False, True):
            U = build_protocol_unitary(model, NoiseModel(0.05, seed=3),
                                       noise_on_diagonal=flag)
            assert unitarity_defect(U) < 1e-10

    def test_noise_on_diagonal_changes_result(self):
        model = haldane.momentum_model(
            haldane.HaldaneParams(phi=-np.pi / 2, M=0.0), grid=4)
        noise = NoiseModel(0.05, seed=3)
        U_off = build_protocol_unitary(model, noise)
        U_on = build_protocol_unitary(model, noise, noise_on_diagonal=True)
        assert np.abs(U_on - U_off).max() > 1e-4

    def test_unsupported_dimension(self):
        model = MomentumModel(d=3, l=1, grid=2,
                              sampler=lambda *m: np.zeros((1, 1)))
        with pytest.raises(ValueError):
            build_protocol_unitary(model)


def random_hermitian_model(d, l, grid, seed=0):
    rng = np.random.default_rng(seed)
    shape = (grid ** d, l, l)
    blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    blocks = blocks + blocks.conj().swapaxes(1, 2)
    return MomentumModel(
        d=d, l=l, grid=grid, T=0.2,
        sampler=lambda *m: blocks[np.ravel_multi_index(m, (grid,) * d)])


def dense_kron_reference(model, noise, noise_on_diagonal):
    """V_f U_d V_i from dense Kronecker products of the same noisy factors."""
    seq = circuit.compile_for_size(model.grid)

    def factors(salts, invert):
        mats = [apply_noisy_sequence(seq, noise.substream(salts[k]), invert=invert)
                for k in range(model.d)]
        return reduce(np.kron, mats + [np.eye(model.l)])

    scale = 1.0
    if noise_on_diagonal and noise.sigma > 0:
        scale = 1.0 + noise.substream(engine._SALT_DIAGONAL).delta(0)
    U_d = diagonal_momentum_evolution(model, scale=scale)
    return (factors(engine._SALT_FORWARD, False) @ U_d
            @ factors(engine._SALT_INVERSE, True))


class TestKroneckerAssembly:
    def test_two_point_pair_matches_2d_dft(self):
        # row-major composite (x, y): brute-force 2D transform on a 2x2 grid
        energies = np.array([[0.9, -0.3], [1.7, 0.2]])
        model = MomentumModel(d=2, l=1, grid=2, T=0.5,
                              sampler=lambda a, b: np.array([[energies[a, b]]]))
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
        assert np.abs(build_protocol_unitary(model) - expected).max() < 1e-12

    def test_max_dimension_guard(self):
        def sampler(*m):
            raise AssertionError("sampler called for an oversized model")

        model = MomentumModel(d=2, l=2, grid=46, sampler=sampler)
        assert model.dim > MAX_DIM
        with pytest.raises(ValueError, match="exceeds"):
            build_protocol_unitary(model)

    @pytest.mark.parametrize("d,l,grid", [(1, 1, 8), (1, 2, 3), (2, 1, 4),
                                          (2, 2, 4)])
    @pytest.mark.parametrize("noise_on_diagonal", [False, True])
    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(seed=SEEDS, sigma=SIGMAS)
    def test_matches_dense_kron_reference(self, d, l, grid, noise_on_diagonal,
                                          seed, sigma):
        model = random_hermitian_model(d, l, grid)
        noise = NoiseModel(sigma, seed, stream_id=seed % 7)
        got = build_protocol_unitary(model, noise, noise_on_diagonal)
        ref = dense_kron_reference(model, noise, noise_on_diagonal)
        assert np.abs(got - ref).max() < 1e-12


class TestExtractSpectrum:
    def test_identity_all_zero(self):
        spec = extract_spectrum(np.eye(6), T=0.5, l=2)
        assert np.abs(spec.energies).max() == 0.0
        assert spec.band_width == 0.0

    def test_flat_band_energies(self):
        p = haldane.HaldaneParams(phi=-np.pi / 2, M=0.0)
        model = haldane.momentum_model(p, grid=4)
        U = build_protocol_unitary(model)
        spec = extract_spectrum(U, model.T, model.l)
        norm = p.target_norm
        assert np.abs(spec.band(0) + norm).max() < 1e-9
        assert np.abs(spec.band(1) - norm).max() < 1e-9
        assert spec.band_width < 1e-9
        assert spec.band_gap == pytest.approx(2 * norm, abs=1e-9)

    def test_round_trip_diagonal(self):
        energies = np.array([0.9, -0.3, 1.7, 0.2, -1.1, 0.0, 0.4, 2.0])
        model = diagonal_model(energies, T=0.25)
        U = build_protocol_unitary(model)
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
        U = build_protocol_unitary(model, NoiseModel(sigma, seed))
        spec = extract_spectrum(U, model.T, model.l)
        ref = np.sort(-np.angle(np.linalg.eigvals(U)) / model.T)
        assert np.abs(spec.energies - ref).max() < 1e-12

    def test_band_gap_needs_two_bands(self):
        spec = extract_spectrum(np.eye(4), T=1.0, l=1)
        with pytest.raises(ValueError):
            spec.band_gap


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
