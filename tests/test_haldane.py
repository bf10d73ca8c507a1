import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from qqft import engine, haldane, protocol
from qqft.engine import NoiseModel
from qqft.haldane import (
    PAULI,
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
    d_vector,
    flatten,
    momentum_model,
    noise_sweep_gap_width,
    phase_diagram,
)
from qqft.protocol import (MomentumModel, PhaseWrapError, build_protocol_unitary,
                           extract_spectrum)


def params(phi, M):
    return HaldaneParams(phi=phi, M=M)


class TestParams:
    @pytest.mark.parametrize("field", ["phi", "M"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = {"phi": 0.5, "M": 0.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            HaldaneParams(**kwargs)

    def test_lazy_in_grid_size(self):
        # an oversized grid is refused when the model is built, before
        # anything of grid size is
        with pytest.raises(ValueError, match="grid=1000000 gives evolution "
                                             "dimension 2000000000000, which"):
            haldane.momentum_model(params(0.5, 0.0), 10**6)


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
        d = d_vector([0.0, 0.0], params(0.7, 1.3))
        assert d == pytest.approx([3.0, 0.0, 1.3])

    def test_d3_vanishes_without_flux(self):
        p = params(0.0, 0.0)
        for k in bz_grid(5).reshape(-1, 2):
            d = d_vector(k, p)
            assert abs(d[2]) < 1e-12

    def test_dirac_point(self):
        # K corner: k.g2 = k.g3 = 2 pi / 3 kills the nearest-neighbor part
        k = (B_ROW + B_COL) / 3
        d = d_vector(k, params(0.4, 0.9))
        assert abs(d[0]) < 1e-12
        assert abs(d[1]) < 1e-12
        # remaining mass at K: M - 3 sqrt(3) t2 sin(phi)
        p = params(0.4, 0.9)
        expected = p.M - 3 * np.sqrt(3) * haldane.T2 * np.sin(p.phi)
        assert d[2] == pytest.approx(expected)


class TestFlatten:
    def test_rescales_to_target(self):
        got = flatten([3.0, 4.0, 0.0])
        assert got == pytest.approx(2 * np.pi * np.array([0.6, 0.8, 0.0]))

    def test_uniform_norm_on_grid(self):
        p = params(-np.pi / 2, 0.0)
        for k in bz_grid(8).reshape(-1, 2):
            d = d_vector(k, p)
            assert np.linalg.norm(flatten(d)) == pytest.approx(
                haldane.TARGET_NORM, abs=1e-12)

    def test_singular_point(self):
        with pytest.raises(SingularPointError):
            flatten([0.0, 0.0, 0.0])

    def test_norm_overflow(self):
        # |d| overflows from about 1.3e154, and the flattened d would be 0
        assert np.linalg.norm(flatten([0.0, 0.0, 1e154])) == pytest.approx(
            haldane.TARGET_NORM)
        with pytest.raises(ValueError, match="its norm overflows"):
            flatten([[0.0, 0.0], [0.0, 0.0], [1.0, 1e155]])


def blocks_loop(p, grid):
    """The flattened Bloch blocks point by point, each d-vector normalized on
    its own (the reference for the vectorized `momentum_model`)."""
    H = np.empty((grid * grid, 2, 2), dtype=complex)
    for a in range(grid):
        for b in range(grid):
            d = d_vector(bz_grid(grid)[a, b], p)
            d = d * (haldane.TARGET_NORM / np.linalg.norm(d))
            H[a * grid + b] = sum(di * s for di, s in zip(d, PAULI))
    return H


class TestModelBuild:
    @pytest.mark.parametrize("grid", [2, 16])
    @pytest.mark.parametrize("phi,M", [(-np.pi / 2, 0.0), (np.pi / 3, 0.5),
                                       (np.pi / 2, 10.0), (2.4, -1.7),
                                       (0.0, 0.3)])
    def test_matches_point_by_point_loop(self, grid, phi, M):
        p = params(phi, M)
        w, Q = momentum_model(p, grid).eigensystem
        w_ref, Q_ref = np.linalg.eigh(blocks_loop(p, grid))
        assert np.abs(w - w_ref).max() < 1e-13
        # eigenvectors up to a phase: compare the band projectors
        proj = np.einsum("pai,pbi->piab", Q, Q.conj())
        proj_ref = np.einsum("pai,pbi->piab", Q_ref, Q_ref.conj())
        assert np.abs(proj - proj_ref).max() < 1e-13

    @pytest.mark.parametrize("grid", [3, 6])
    def test_dirac_point_on_the_grid_is_singular(self, grid):
        # M = 3 sqrt(3) t2 sin(phi) closes the gap at K, a grid point when 3
        # divides the grid; nothing is built before the eigensystem is asked
        p = params(np.pi / 2, 3.0)
        model = momentum_model(p, grid)
        with pytest.raises(SingularPointError):
            model.eigensystem

    def test_wrong_stack_shape_rejected(self):
        for shape in [(4, 4, 2, 2), (16, 3, 3), (15, 2, 2), (16, 2)]:
            model = MomentumModel(d=2, l=2, grid=4, hamiltonian=lambda: np.zeros(shape))
            with pytest.raises(ValueError, match=re.escape(
                    f"hamiltonian has shape {shape}, expected (16, 2, 2)")):
                model.eigensystem

    def test_non_hermitian_block_names_its_point(self):
        for d, point in [(2, (1, 3)), (1, (3,))]:
            H = np.array([np.eye(2)] * 4 ** d)
            H[np.ravel_multi_index(point, (4,) * d), 0, 1] = 1.0
            model = MomentumModel(d=d, l=2, grid=4, hamiltonian=lambda: H)
            with pytest.raises(ValueError,
                               match=re.escape(f"block at {point} is not Hermitian")):
                model.eigensystem


class TestChernAnalytic:
    def test_topological_lobes(self):
        assert chern_analytic(params(-np.pi / 2, 0.0)) == 1
        assert chern_analytic(params(np.pi / 2, 0.0)) == -1

    def test_trivial_phase(self):
        assert chern_analytic(params(np.pi / 2, 10.0)) == 0

    def test_boundary_reported(self):
        with pytest.raises(PhaseBoundaryError):
            chern_analytic(params(np.pi / 2, 3.0))


def chern_fhs(model: MomentumModel) -> int:
    """Lattice field-strength Chern number of the lower band.

    Plaquette products of link overlaps of the lower-band eigenvectors of
    `model.eigensystem`, all plaquettes at once; the total flux is
    quantized for a gapped model and is independent of the sign formula of
    `chern_analytic`, which the tests compare it with.
    """
    N = model.grid
    u = model.eigensystem[1][:, :, 0].reshape(N, N, model.l)
    # the corners (a, b), (a + 1, b), (a + 1, b + 1), (a, b + 1), in order
    loop = [u, np.roll(u, -1, 0), np.roll(u, (-1, -1), (0, 1)), np.roll(u, -1, 1)]
    plaq = np.prod([np.einsum("abi,abi->ab", v.conj(), w)
                    for v, w in zip(loop, loop[1:] + loop[:1])], axis=0)
    singular = np.argwhere(np.abs(plaq) < 1e-12)
    if len(singular):
        raise GapClosedError("singular plaquette at ({}, {})".format(*singular[0]))
    c = np.angle(plaq).sum() / (2.0 * np.pi)
    if abs(c - round(c)) > 0.1:
        raise GapClosedError(f"non-integer lattice Chern number {c}")
    return int(round(c))


def chern_fhs_loop(model):
    """Plaquette Chern number point by point: one `eigh` per grid point and
    one plaquette per step of a double loop (the reference for the
    vectorized `chern_fhs`)."""
    N = model.grid
    H = np.asarray(model.hamiltonian(), dtype=complex)
    vecs = np.zeros((N, N, model.l), dtype=complex)
    for a in range(N):
        for b in range(N):
            _, Q = np.linalg.eigh(H[a * N + b])
            vecs[a, b] = Q[:, 0]
    total = 0.0
    for a in range(N):
        for b in range(N):
            u1, u2 = vecs[a, b], vecs[(a + 1) % N, b]
            u3, u4 = vecs[(a + 1) % N, (b + 1) % N], vecs[a, (b + 1) % N]
            plaq = (np.vdot(u1, u2) * np.vdot(u2, u3)
                    * np.vdot(u3, u4) * np.vdot(u4, u1))
            if abs(plaq) < 1e-12:
                raise GapClosedError(f"singular plaquette at ({a}, {b})")
            total += np.angle(plaq)
    c = total / (2.0 * np.pi)
    if abs(c - round(c)) > 0.1:
        raise GapClosedError(f"non-integer lattice Chern number {c}")
    return int(round(c))


def chern_or_error(fn, model):
    try:
        return fn(model)
    except GapClosedError:
        return "gap closed"


class TestChernFhs:
    def test_matches_analytic_in_lobes(self):
        assert chern_fhs(momentum_model(params(-np.pi / 2, 0.0))) == 1
        assert chern_fhs(momentum_model(params(np.pi / 2, 10.0))) == 0

    def test_constant_map_is_trivial(self):
        from qqft.protocol import MomentumModel
        model = MomentumModel(d=2, l=2, grid=8,
                              hamiltonian=lambda: np.array([PAULI[2]] * 64))
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

    @settings(max_examples=30, deadline=None)
    @given(phi=st.floats(-np.pi, np.pi), M=st.floats(-6.0, 6.0),
           grid=st.sampled_from([3, 6, 8, 16]))
    def test_matches_loop_reference(self, phi, M, grid):
        # away from the boundaries M = +-3 sqrt(3) t2 sin(phi)
        a = 3.0 * np.sqrt(3) * haldane.T2 * np.sin(phi)
        assume(min(abs(M + a), abs(M - a)) > 0.3)
        model = momentum_model(params(phi, M), grid)
        assert (chern_or_error(chern_fhs, model)
                == chern_or_error(chern_fhs_loop, model))

    def test_singular_plaquette_rejected(self):
        # lower-band vectors alternate between orthogonal states along rows
        from qqft.protocol import MomentumModel
        sign = (-1.0) ** np.repeat(np.arange(4), 4)
        model = MomentumModel(d=2, l=2, grid=4,
                              hamiltonian=lambda: sign[:, None, None] * PAULI[2])
        with pytest.raises(GapClosedError, match="singular plaquette"):
            chern_fhs(model)
        with pytest.raises(GapClosedError, match="singular plaquette"):
            chern_fhs_loop(model)


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

    def clean_bott(self, phi, M):
        return self.model_bott(momentum_model(params(phi, M), grid=self.grid()))

    def model_bott(self, model):
        U, = build_protocol_unitary(model)
        return bott_index(U, model.T, model.l)[0]

    def test_matches_chern_in_clean_limit(self):
        assert self.clean_bott(-np.pi / 2, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert self.clean_bott(np.pi / 2, 0.0) == pytest.approx(-1.0, abs=1e-6)

    def test_trivial_phase(self):
        assert self.clean_bott(np.pi / 2, 10.0) == pytest.approx(0.0, abs=1e-6)

    def test_noisy_lobe_interior_still_quantized(self):
        model = momentum_model(params(-np.pi / 2, 0.0), grid=self.grid())
        hits = 0
        for r in range(6):
            U, = build_protocol_unitary(model, [NoiseModel(3e-2, seed=17,
                                                           stream_id=r)])
            b, _ = bott_index(U, model.T, model.l)
            assert abs(b - round(b)) < 0.1
            hits += round(b) == 1
        assert hits >= 5

    def test_invariant_under_energy_shift(self):
        model = momentum_model(params(-np.pi / 2, 0.0), grid=self.grid())
        base = self.model_bott(model)
        shifted = self.model_bott(MomentumModel(
            d=2, l=2, grid=model.grid, T=model.T,
            hamiltonian=lambda: model.hamiltonian() + 1.7 * np.eye(2)))
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
        U, = build_protocol_unitary(model, [NoiseModel(3e-2, seed=seed)])
        b, _ = bott_index(U, model.T, model.l)
        assert b == pytest.approx(schur_bott_reference(U, model.T, model.l),
                                  abs=1e-9)


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def eig_bott_reference(U, T, l):
    """Bott index from `np.linalg.eig` vectors: the occupied set is the top
    half of the eigenphases, orthonormalized by QR."""
    dim = U.shape[0]
    N = round(np.sqrt(dim / l))
    vals, vecs = np.linalg.eig(U)
    order = np.argsort(-np.angle(vals) / T, kind="stable")
    occ, _ = np.linalg.qr(vecs[:, order[:dim // 2]])
    cell = np.arange(dim) // l
    px = np.exp(2j * np.pi * (cell % N) / N)
    py = np.exp(2j * np.pi * (cell // N) / N)
    Vx = occ.conj().T @ (px[:, None] * occ)
    Vy = occ.conj().T @ (py[:, None] * occ)
    loop = Vy @ Vx @ Vy.conj().T @ Vx.conj().T
    return float(np.angle(np.linalg.eigvals(loop)).sum() / (2.0 * np.pi))


class TestArctan2Route:
    """The eigenphases and eigenvectors behind `bott_index`."""

    def check_route(self, U):
        theta, Z = protocol._arctan2_phases(U)
        ref = np.sort(np.angle(np.linalg.eigvals(U)))
        assert np.abs(np.sort(theta) - ref).max() < 1e-12
        assert np.abs(Z.conj().T @ Z - np.eye(len(U))).max() < 1e-12
        residual = np.linalg.norm(U @ Z - Z * np.exp(1j * theta), axis=0)
        assert residual.max() <= 1e-10

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(theta=st.lists(st.floats(min_value=-3.1, max_value=3.1), max_size=16),
           mirrored=st.lists(st.floats(min_value=0.05, max_value=1.5), max_size=6),
           seed=SEEDS)
    def test_phases_match_general_eigensolver(self, theta, mirrored, seed):
        # theta and pi - theta share a sine, so eigh(S) mixes their vectors
        phases = theta + mirrored + [np.pi - t for t in mirrored]
        assume(phases)
        self.check_route(unitary_with_phases(phases, seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_run_straddling_zero_sine(self, seed):
        # pi - 1e-5 mirrors 1e-5, and -1e-5 joins their run of sines with
        # the cosine of 1e-5: a Hermitian solve in cos theta mixes those two
        # and errs by about 1e-5
        self.check_route(unitary_with_phases([np.pi - 1e-5, 1e-5, -1e-5, 0.7, -2.0],
                                             seed))

    @pytest.mark.parametrize("grid", [2, 4, 8])
    @pytest.mark.parametrize("lobe", [(-np.pi / 2, 0.0), (np.pi / 3, 0.5),
                                      (np.pi / 2, 10.0)])
    def test_clean_flat_bands_skip_the_cluster_step(self, monkeypatch, grid, lobe):
        # two eigenphases, each dim / 2 times: the large runs of equal sine
        # hold one theta each, so every residual passes at once
        model = momentum_model(params(*lobe), grid=grid)
        U, = build_protocol_unitary(model)

        def refuse(*args, **kwargs):
            raise AssertionError("the cluster step was taken")

        monkeypatch.setattr(protocol._linalg(), "schur", refuse)
        self.check_route(U)

    def test_occupied_set_is_the_top_half(self):
        # fewer than half of the eigenphases are positive here, so the
        # occupied set is not theta > 0
        model = momentum_model(params(-np.pi / 2, 0.0), grid=16)
        U, = build_protocol_unitary(model, [NoiseModel(3e-2, seed=1)])
        assert (np.angle(np.linalg.eigvals(U)) > 0).sum() == 235
        b, _ = bott_index(U, model.T, model.l)
        assert b == pytest.approx(eig_bott_reference(U, model.T, model.l),
                                  abs=1e-9)
        assert round(b) == 1

    @pytest.mark.parametrize("distance", [1e-3, 1e-5, 2e-6])
    def test_headroom_near_the_cut(self, distance):
        # the Cayley map's phase error grew like eps / distance^2: 1e-5 at
        # distance 2e-6
        phases = [np.pi - distance, 2.0, 1.0, 0.5, -0.5, -1.0, -2.0, -2.5]
        U = unitary_with_phases(phases, seed=3)
        bott, headroom = bott_index(U, T=1.0, l=2)
        assert headroom == pytest.approx(distance, abs=1e-12)
        assert bott == pytest.approx(eig_bott_reference(U, 1.0, 2), abs=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(N=st.sampled_from([2, 3, 4]),
           exponent=st.floats(min_value=-6.0, max_value=-1.0), seed=SEEDS)
    def test_perturbed_unitary_rejected(self, N, exponent, seed):
        n = 2 * N * N
        rng = np.random.default_rng(seed)
        E = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        U = unitary_with_phases(rng.uniform(-3.0, 3.0, size=n), seed)
        with pytest.raises(ValueError, match="not unitary"):
            bott_index(U @ (np.eye(n) + 10.0 ** exponent * E), T=1.0, l=2)

    @pytest.mark.parametrize("kind,eps", [("general", 1e-11), ("rank one", 3e-10)])
    def test_defect_the_probes_let_through_gets_phases(self, kind, eps):
        # a unitarity defect below the probe bound mixes eigh(S) vectors
        # whose sines differ by far more than the cluster gap, by about
        # defect / (sine gap), so that their residuals exceed that bound; the
        # spectrum and the Bott index must both still take such a matrix.
        # Checked on one BLAS thread, as every sweep runs
        engine._pin_blas()
        model = momentum_model(params(-np.pi / 2, 0.0), grid=16)
        U, = build_protocol_unitary(model, [NoiseModel(3e-2, seed=1)])
        n = len(U)
        rng = np.random.default_rng(1)
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        E = G if kind == "general" else np.outer(G[:, 0], G[:, 1].conj())
        V = U @ (np.eye(n) + eps * E / np.linalg.norm(E, 2))
        sin, Z = np.linalg.eigh((V - V.conj().T) / 2j)
        cos = np.einsum("ij,ij->j", Z.conj(), V @ Z).real
        residual = np.linalg.norm(V @ Z - Z * np.exp(1j * np.arctan2(sin, cos)), axis=0)
        assert residual.max() > protocol.UNITARY_TOL * np.sqrt(n)
        ref = np.sort(np.angle(np.linalg.eigvals(V)))
        theta, Z = protocol._arctan2_phases(protocol._checked_unitary(V))
        assert np.abs(np.sort(theta) - ref).max() < 1e-12
        # Z is orthonormal as the eigh driver leaves it (evr, MRRR: to
        # O(n eps)); at general-1e-11 it reads 9.3 n eps on one BLAS thread
        # and 2.0 on two
        orthogonality = 16 * n * np.finfo(float).eps
        assert np.abs(Z.conj().T @ Z - np.eye(n)).max() < orthogonality
        energies = extract_spectrum(V, model.T, model.l).energies
        assert np.abs(energies - np.sort(-ref / model.T)).max() < 1e-12
        assert bott_index(V, model.T, model.l)[0] == pytest.approx(
            bott_index(U, model.T, model.l)[0], abs=1e-9)


class TestNoiseSweep:
    def test_noiseless_row_is_exactly_flat(self):
        p = params(-np.pi / 2, 0.0)
        [point] = noise_sweep_gap_width(p, NoiseModel((0.0,), 1),
                                        n_realizations=2, grid=4)
        assert point.mean("width") < 1e-9
        assert point.mean("gap") == pytest.approx(2 * haldane.TARGET_NORM, abs=1e-9)

    def test_trend_and_worker_invariance(self):
        p = params(-np.pi / 2, 0.0)
        noise = NoiseModel((0.0, 2e-3, 8e-3), 42)
        serial = noise_sweep_gap_width(p, noise, 6, grid=4)
        threaded = noise_sweep_gap_width(p, noise, 6, grid=4, workers=3)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.samples["gap"], b.samples["gap"])
            assert np.array_equal(a.samples["width"], b.samples["width"])
        widths = [pt.mean("width") for pt in serial]
        gaps = [pt.mean("gap") for pt in serial]
        assert widths[0] < widths[1] < widths[2]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_realization_streams_differ(self):
        p = params(-np.pi / 2, 0.0)
        [point] = noise_sweep_gap_width(p, NoiseModel((5e-3,), 9),
                                        n_realizations=3, grid=4)
        assert len(set(point.samples["width"].tolist())) == 3

    def test_headroom_samples_and_stderr_line(self, capsys):
        p = params(-np.pi / 2, 0.0)
        clean, noisy = noise_sweep_gap_width(p, NoiseModel((0.0, 0.3), 5),
                                             n_realizations=2, grid=4)
        model = momentum_model(p, grid=4)
        for r, headroom in enumerate(noisy.samples["headroom"]):
            U, = build_protocol_unitary(model, [NoiseModel(0.3, 5, stream_id=r)])
            theta = np.angle(np.linalg.eigvals(U))
            assert headroom == pytest.approx(np.pi - np.abs(theta).max(), abs=1e-9)
        # clean eigenphases are +-T |d| = +-1
        assert clean.samples["headroom"] == pytest.approx([np.pi - 1.0] * 2)
        [line] = capsys.readouterr().err.splitlines()
        assert "branch cut at sigma=0.3 " in line
        assert f"margin {haldane.HEADROOM_MARGIN:g} rad" in line

    def test_in_range_sweep_prints_nothing(self, capsys):
        noise_sweep_gap_width(params(-np.pi / 2, 0.0), NoiseModel((0.0, 5e-3), 5),
                              n_realizations=2, grid=4)
        assert capsys.readouterr().err == ""

    def test_zero_realizations_rejected(self):
        for n in (0, 2.0, True):  # True once ran as one realization
            with pytest.raises(ValueError):
                noise_sweep_gap_width(params(-np.pi / 2, 0.0),
                                      NoiseModel((1e-3,), 1), n_realizations=n,
                                      grid=4)

    def test_realization_count_error_names_the_parameter(self):
        with pytest.raises(ValueError, match=r"^n_realizations must be an "
                           r"integer >= 1, got 2\.0$"):
            noise_sweep_gap_width(params(-np.pi / 2, 0.0), NoiseModel((1e-3,), 1),
                                  n_realizations=2.0, grid=4)

    @pytest.mark.parametrize("noise", [NoiseModel(1e-3, 1),
                                       NoiseModel((1e-3,), 1, stream_id=2)])
    def test_scalar_sigma_or_nonzero_stream_rejected(self, noise):
        with pytest.raises(ValueError, match="column of sigmas on stream 0"):
            noise_sweep_gap_width(params(-np.pi / 2, 0.0), noise, 2, grid=4)


class TestPhaseDiagram:
    def test_clean_diagram_matches_analytic(self):
        phis = [-np.pi / 2, np.pi / 2]
        ms = [0.0, 5.0]
        cells = phase_diagram(phis, ms, NoiseModel(0.0, 1), grid=4)
        assert len(cells) == 4
        for phi, M, bott, chern in cells:
            assert chern == chern_analytic(params(phi, M))
            assert round(bott) == chern

    def test_boundary_cell_has_no_chern(self):
        cells = phase_diagram([np.pi / 2], [3.0], NoiseModel(0.0, 1), grid=4)
        assert cells[0][3] is None

    def test_zero_realizations_rejected(self):
        for n in (0, 2.5, True):  # True once ran as one realization
            with pytest.raises(ValueError):
                phase_diagram([-np.pi / 2], [0.0], NoiseModel(1e-3, 1), grid=4,
                              realizations=n)

    @pytest.mark.parametrize("noise", [NoiseModel((1e-3,), 1),
                                       NoiseModel(1e-3, 1, stream_id=2)])
    def test_column_or_nonzero_stream_rejected(self, noise):
        with pytest.raises(ValueError, match="one sigma on stream 0"):
            phase_diagram([-np.pi / 2], [0.0], noise, grid=4)

    def test_cell_streams_carry_the_model(self, monkeypatch):
        # realization r of cell i is replace(noise, stream_id=r).substream(i),
        # and a cell's realizations are one block, so the diagonal switch
        # travels with the model into every evolution
        calls = []
        real = haldane.build_protocol_unitary
        monkeypatch.setattr(haldane, "build_protocol_unitary",
                            lambda model, block: calls.append(block) or real(model, block))
        noise = NoiseModel(3e-2, 5, diagonal=True)
        phase_diagram([-np.pi / 2, np.pi / 2], [0.0, 1.0], noise, grid=4,
                      realizations=2)
        assert calls == [[replace(noise, stream_id=r).substream(index)
                          for r in range(2)] for index in range(4)]
        assert all(c.diagonal for block in calls for c in block)


class TestClosedGapCount:
    # {(cell index, realization): the error the patched Bott index raises},
    # the cells whose mean is NaN, and the stderr lines
    @pytest.mark.parametrize("failures,nan,lines", [
        ({(1, 0): GapClosedError, (2, 0): GapClosedError,
          (2, 2): GapClosedError},
         [False, True, True, False],
         [(1, "gap closed in 1"), (2, "gap closed in 2")]),
        ({(1, 0): GapClosedError, (2, 0): GapClosedError,
          (2, 2): PhaseWrapError, (3, 1): PhaseWrapError},
         [False, True, True, True],
         [(1, "gap closed in 1"), (2, "gap closed in 1 and phase wrapped in 1"),
          (3, "phase wrapped in 1")]),
    ], ids=["closed", "closed-and-wrapped"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counted_per_cell_on_stderr(self, monkeypatch, capsys, workers,
                                        failures, nan, lines):
        phis, ms = [-np.pi / 2, np.pi / 2], [0.0, 1.0]
        cells = [(phi, m) for phi in phis for m in ms]
        refused = [(*build_protocol_unitary(
            momentum_model(params(*cells[index]), 4),
            [replace(NoiseModel(1e-2, 3), stream_id=r).substream(index)]), error)
            for (index, r), error in failures.items()]
        real = haldane.bott_index

        def forced_bott_index(U, T, l):
            for V, error in refused:
                if np.array_equal(U, V):
                    raise error("forced")
            return real(U, T, l)

        # forked workers inherit the patched module attribute
        monkeypatch.setattr(haldane, "bott_index", forced_bott_index)
        rows = phase_diagram(phis, ms, NoiseModel(1e-2, 3), grid=4,
                             realizations=3, workers=workers)
        assert [len(row) for row in rows] == [4] * 4
        assert [np.isnan(row[2]) for row in rows] == nan
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("phase diagram")] == [
            f"phase diagram: {counts} of 3 realizations at "
            f"phi={cells[index][0]:g}, M={cells[index][1]:g}"
            for index, counts in lines]

    def test_gapped_cells_print_nothing(self, capsys):
        phase_diagram([-np.pi / 2], [0.0], NoiseModel(1e-2, 3), grid=4,
                      realizations=2)
        assert "phase diagram" not in capsys.readouterr().err


class TestPhaseDiagramHeadroom:
    def test_headroom_is_distance_to_branch_cut(self):
        model = momentum_model(params(-np.pi / 2, 1.0), grid=4)
        U, = build_protocol_unitary(model, [NoiseModel(0.2, 5)])
        _, headroom = bott_index(U, model.T, model.l)
        theta = np.angle(np.linalg.eigvals(U))
        assert headroom == pytest.approx(np.pi - np.abs(theta).max(), abs=1e-9)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_line_per_cell_below_margin(self, monkeypatch, capsys,
                                            workers):
        # every cell's headroom lies below pi: one line each, in cell order,
        # and the rows do not change
        phis, ms = [-np.pi / 2, np.pi / 2], [0.0, 1.0]
        noise = NoiseModel(1e-2, 3)
        quiet = phase_diagram(phis, ms, noise, grid=4, realizations=2)
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(haldane, "HEADROOM_MARGIN", 4.0)
        rows = phase_diagram(phis, ms, noise, grid=4, realizations=2,
                             workers=workers)
        assert rows == quiet
        err = capsys.readouterr().err.splitlines()
        assert [line.split(" rad of the branch cut at ")[1] for line in err] == [
            f"phi={phi:g}, M={m:g} (margin 4 rad); energies may have wrapped"
            for phi in phis for m in ms]

    def test_line_near_the_cut(self, capsys):
        # sigma = 0.2 takes this cell within 0.08 rad of the cut
        phase_diagram([-np.pi / 2], [1.0], NoiseModel(0.2, 5), grid=4,
                      realizations=2)
        [line] = capsys.readouterr().err.splitlines()
        head, tail = line.split(" rad of the branch cut at ")
        assert head.startswith("phase diagram: eigenphases within ")
        assert 0 < float(head.rsplit(" ", 1)[1]) < haldane.HEADROOM_MARGIN
        assert tail.startswith("phi=-1.5708, M=1 (margin 0.1 rad)")
