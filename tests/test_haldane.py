import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qqft.engine import NoiseModel
from qqft.haldane import (
    G1,
    G2,
    G3,
    B_COL,
    B_ROW,
    GapClosedError,
    HaldaneParams,
    PhaseBoundaryError,
    SingularPointError,
    bott_index,
    bz_grid,
    chern_analytic,
    chern_fhs,
    d_vector,
    flatten,
    momentum_model,
    noise_sweep_gap_width,
    phase_diagram,
)
from qqft.protocol import PhaseWrapError, build_protocol_unitary, extract_spectrum


def params(phi, M):
    return HaldaneParams(phi=phi, M=M)


class TestGeometry:
    def test_bond_vectors_close(self):
        assert np.abs(G1 + G2 + G3).max() < 1e-15

    def test_reciprocal_duality(self):
        assert B_ROW @ G2 == pytest.approx(2 * np.pi)
        assert abs(B_ROW @ G3) < 1e-12
        assert B_COL @ G3 == pytest.approx(2 * np.pi)
        assert abs(B_COL @ G2) < 1e-12

    def test_grid_phases(self):
        ks = bz_grid(6)
        assert ks[2, 5] @ G2 == pytest.approx(2 * np.pi * 2 / 6)
        assert ks[2, 5] @ G3 == pytest.approx(2 * np.pi * 5 / 6)


class TestDVector:
    def test_zone_center(self):
        d, d0 = d_vector([0.0, 0.0], params(0.7, 1.3))
        assert d == pytest.approx([3.0, 0.0, 1.3])
        assert d0 == 0.0

    def test_d3_vanishes_without_flux(self):
        p = params(0.0, 0.0)
        for k in bz_grid(5).reshape(-1, 2):
            d, _ = d_vector(k, p)
            assert abs(d[2]) < 1e-12

    def test_dirac_point(self):
        # K corner: k.g2 = k.g3 = 2 pi / 3 kills the nearest-neighbor part
        k = (B_ROW + B_COL) / 3
        d, _ = d_vector(k, params(0.4, 0.9))
        assert abs(d[0]) < 1e-12
        assert abs(d[1]) < 1e-12
        # remaining mass at K: M - 3 sqrt(3) t2 sin(phi)
        p = params(0.4, 0.9)
        expected = p.M - 3 * np.sqrt(3) * p.t2 * np.sin(p.phi)
        assert d[2] == pytest.approx(expected)


class TestFlatten:
    def test_rescales_to_target(self):
        got = flatten([3.0, 4.0, 0.0], 2 * np.pi)
        assert got == pytest.approx(2 * np.pi * np.array([0.6, 0.8, 0.0]))

    def test_uniform_norm_on_grid(self):
        p = params(-np.pi / 2, 0.0)
        for k in bz_grid(8).reshape(-1, 2):
            d, _ = d_vector(k, p)
            assert np.linalg.norm(flatten(d, p.target_norm)) == pytest.approx(
                p.target_norm, abs=1e-12)

    def test_singular_point(self):
        with pytest.raises(SingularPointError):
            flatten([0.0, 0.0, 0.0], 1.0)


class TestChernAnalytic:
    def test_topological_lobes(self):
        assert chern_analytic(params(-np.pi / 2, 0.0)) == 1
        assert chern_analytic(params(np.pi / 2, 0.0)) == -1

    def test_trivial_phase(self):
        assert chern_analytic(params(np.pi / 2, 10.0)) == 0

    def test_boundary_reported(self):
        with pytest.raises(PhaseBoundaryError):
            chern_analytic(params(np.pi / 2, 3.0))


class TestChernFhs:
    def test_matches_analytic_in_lobes(self):
        assert chern_fhs(momentum_model(params(-np.pi / 2, 0.0))) == 1
        assert chern_fhs(momentum_model(params(np.pi / 2, 10.0))) == 0

    def test_constant_map_is_trivial(self):
        from qqft.protocol import MomentumModel
        model = MomentumModel(
            d=2, l=2, grid=8,
            sampler=lambda a, b: np.array([[1.0, 0.0], [0.0, -1.0]]))
        assert chern_fhs(model) == 0

    @pytest.mark.parametrize("phi,M", [
        (-np.pi / 2, 0.0), (-np.pi / 2, 2.0), (-np.pi / 2, -2.0),
        (np.pi / 2, 0.0), (np.pi / 2, 2.0), (np.pi / 3, -1.0),
        (-np.pi / 3, 1.5), (2.4, 0.5), (-2.4, -0.5),
        (np.pi / 2, 4.0), (-np.pi / 2, -4.0), (0.3, 2.0),
    ])
    def test_twelve_point_agreement(self, phi, M):
        p = params(phi, M)
        assert chern_fhs(momentum_model(p)) == chern_analytic(p)


def schur_bott_reference(U, T, l):
    """Bott index from a complex Schur decomposition of U."""
    dim = U.shape[0]
    N = round(np.sqrt(dim / l))
    Tmat, Z = scipy.linalg.schur(U, output="complex")
    order = np.argsort(-np.angle(np.diag(Tmat)) / T, kind="stable")
    occ = Z[:, order[:dim // 2]]
    cell = np.arange(dim) // l
    px = np.exp(2j * np.pi * (cell % N) / N)
    py = np.exp(2j * np.pi * (cell // N) / N)
    Vx = occ.conj().T @ (px[:, None] * occ)
    Vy = occ.conj().T @ (py[:, None] * occ)
    loop = Vy @ Vx @ Vy.conj().T @ Vx.conj().T
    return float(np.angle(np.linalg.eigvals(loop)).sum() / (2.0 * np.pi))


def unitary_with_phases(phases, seed=0):
    rng = np.random.default_rng(seed)
    n = len(phases)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (Q * np.exp(1j * np.asarray(phases))) @ Q.conj().T


class TestBottIndex:
    def grid(self):
        return 8

    def clean_bott(self, phi, M, d0_shift=0.0):
        model = momentum_model(params(phi, M), grid=self.grid(),
                               d0_shift=d0_shift)
        U = build_protocol_unitary(model)
        return bott_index(U, model.T, model.l)

    def test_matches_chern_in_clean_limit(self):
        assert self.clean_bott(-np.pi / 2, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert self.clean_bott(np.pi / 2, 0.0) == pytest.approx(-1.0, abs=1e-6)

    def test_trivial_phase(self):
        assert self.clean_bott(np.pi / 2, 10.0) == pytest.approx(0.0, abs=1e-6)

    def test_noisy_lobe_interior_still_quantized(self):
        model = momentum_model(params(-np.pi / 2, 0.0), grid=self.grid())
        hits = 0
        for r in range(6):
            U = build_protocol_unitary(model, NoiseModel(3e-2, seed=17,
                                                         stream_id=r))
            b = bott_index(U, model.T, model.l)
            assert abs(b - round(b)) < 0.1
            hits += round(b) == 1
        assert hits >= 5

    def test_invariant_under_energy_shift(self):
        base = self.clean_bott(-np.pi / 2, 0.0)
        shifted = self.clean_bott(-np.pi / 2, 0.0, d0_shift=1.7)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_gap_closed_refused(self):
        with pytest.raises(GapClosedError):
            bott_index(np.eye(8, dtype=complex), T=1.0, l=2)

    def test_bad_layout_rejected(self):
        with pytest.raises(ValueError):
            bott_index(np.eye(6, dtype=complex), T=1.0, l=2)

    def test_branch_cut_rejected(self):
        # phases at +-(pi - 1e-9): both the spectrum and the Bott index refuse
        phases = [np.pi - 1e-9, -(np.pi - 1e-9), 0.3, -0.3, 0.5, -0.5, 0.7, -0.7]
        U = unitary_with_phases(phases)
        with pytest.raises(PhaseWrapError):
            extract_spectrum(U, T=1.0, l=2)
        with pytest.raises(PhaseWrapError):
            bott_index(U, T=1.0, l=2)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            bott_index(0.5 * unitary_with_phases([0.1, -0.1] * 4), T=1.0, l=2)

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           lobe=st.sampled_from([(-np.pi / 2, 0.0), (np.pi / 3, 0.5),
                                 (np.pi / 2, 10.0)]))
    def test_matches_schur_reference(self, seed, lobe):
        model = momentum_model(params(*lobe), grid=self.grid())
        U = build_protocol_unitary(model, NoiseModel(3e-2, seed=seed))
        b = bott_index(U, model.T, model.l)
        assert b == pytest.approx(schur_bott_reference(U, model.T, model.l),
                                  abs=1e-9)


class TestNoiseSweep:
    def test_noiseless_row_is_exactly_flat(self):
        p = params(-np.pi / 2, 0.0)
        [point] = noise_sweep_gap_width(p, [0.0], n_realizations=2, seed=1,
                                        grid=4)
        assert point.mean("width") < 1e-9
        assert point.mean("gap") == pytest.approx(2 * p.target_norm, abs=1e-9)

    def test_trend_and_worker_invariance(self):
        p = params(-np.pi / 2, 0.0)
        sigmas = [0.0, 2e-3, 8e-3]
        serial = noise_sweep_gap_width(p, sigmas, 6, seed=42, grid=4)
        threaded = noise_sweep_gap_width(p, sigmas, 6, seed=42, grid=4,
                                         workers=3)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.samples["gap"], b.samples["gap"])
            assert np.array_equal(a.samples["width"], b.samples["width"])
        widths = [pt.mean("width") for pt in serial]
        gaps = [pt.mean("gap") for pt in serial]
        assert widths[0] < widths[1] < widths[2]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_realization_streams_differ(self):
        p = params(-np.pi / 2, 0.0)
        [point] = noise_sweep_gap_width(p, [5e-3], n_realizations=3, seed=9,
                                        grid=4)
        assert len(set(point.samples["width"].tolist())) == 3

    def test_zero_realizations_rejected(self):
        with pytest.raises(ValueError):
            noise_sweep_gap_width(params(-np.pi / 2, 0.0), [1e-3],
                                  n_realizations=0, seed=1, grid=4)


class TestPhaseDiagram:
    def test_clean_diagram_matches_analytic(self):
        phis = [-np.pi / 2, np.pi / 2]
        ms = [0.0, 5.0]
        cells = phase_diagram(phis, ms, sigma=0.0, seed=1, grid=4)
        assert len(cells) == 4
        for phi, M, bott, chern in cells:
            assert chern == chern_analytic(params(phi, M))
            assert round(bott) == chern

    def test_boundary_cell_has_no_chern(self):
        cells = phase_diagram([np.pi / 2], [3.0], sigma=0.0, seed=1, grid=4)
        assert cells[0][3] is None

    def test_zero_realizations_rejected(self):
        with pytest.raises(ValueError):
            phase_diagram([-np.pi / 2], [0.0], sigma=1e-3, seed=1, grid=4,
                          realizations=0)
