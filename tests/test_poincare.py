import numpy as np
import pytest

from qqft.engine import NoiseModel
from qqft.poincare import (
    Dispersion,
    DispersionError,
    build_dispersion,
    equivalence_classes,
    graph_is_invariant,
    greens_function,
    lorentz_map,
    noise_sweep_symmetry,
    s_lorentz,
    s_total,
)


def brute_force_orbits(N, gamma):
    """Orbit partition computed with plain dict bookkeeping."""
    remaining = {(m, n) for m in range(N) for n in range(N)}
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = []
        pt = start
        while pt in remaining:
            remaining.remove(pt)
            orbit.append(pt)
            pt = lorentz_map(pt[0], pt[1], gamma, N)
        orbits.append(orbit)
    return orbits


class TestLorentzMap:
    def test_fixes_origin(self):
        assert lorentz_map(0, 0, 2, 33) == (0, 0)

    def test_single_step(self):
        assert lorentz_map(1, 0, 2, 33) == (2, 3)

    def test_iterated_step(self):
        assert lorentz_map(2, 3, 2, 33) == (7, 12)

    def test_matrix_determinant_is_one(self):
        lattice = equivalence_classes(12, 3)
        assert round(np.linalg.det(lattice.matrix)) == 1


class TestEquivalenceClasses:
    def test_origin_is_a_fixed_point(self):
        lattice = equivalence_classes(33, 2)
        index = lattice.class_of[0, 0]
        assert lattice.classes[index] == ((0, 0),)

    @pytest.mark.parametrize("N,gamma", [(33, 2), (10, 2), (16, 3), (33, 3),
                                         (7, 4)])
    def test_partition_identity(self, N, gamma):
        lattice = equivalence_classes(N, gamma)
        assert lattice.sizes.sum() == N * N

    def test_sizes_for_reference_case(self):
        assert equivalence_classes(33, 2).sizes.sum() == 1089

    def test_classes_closed_under_map(self):
        lattice = equivalence_classes(12, 2)
        for orbit in lattice.classes:
            members = set(orbit)
            mapped = {lorentz_map(m, n, 2, 12) for m, n in orbit}
            assert mapped == members

    def test_matches_brute_force(self):
        lattice = equivalence_classes(9, 2)
        got = sorted(sorted(c) for c in lattice.classes)
        expected = sorted(sorted(c) for c in brute_force_orbits(9, 2))
        assert got == expected

    def test_rejects_small_gamma(self):
        with pytest.raises(ValueError):
            equivalence_classes(9, 1)


class TestBuildDispersion:
    def test_reference_case(self):
        disp = build_dispersion(33, 2)
        assert disp.j_table[0] == 0
        assert any(disp.j_table)
        assert graph_is_invariant(disp.j_table, 33, 2)

    def test_odd_symmetry(self):
        disp = build_dispersion(33, 2)
        j = disp.j_table
        for m in range(33):
            assert j[(-m) % 33] == (-j[m]) % 33

    def test_deterministic_choice(self):
        # lexicographic tie-break between the two odd linear tables
        assert build_dispersion(33, 2) == build_dispersion(33, 2)
        assert build_dispersion(33, 2).j_table[1] == 6

    def test_zero_table_never_returned(self):
        for N, gamma in [(33, 2), (6, 2), (8, 3)]:
            try:
                disp = build_dispersion(N, gamma)
            except DispersionError:
                continue
            assert any(disp.j_table)

    def test_energy_scale(self):
        disp = Dispersion(n_sites=33, gamma=2, j_table=tuple(range(33)))
        assert disp.energies[1] == pytest.approx(2 * np.pi / 33)

    def test_orbit_cover_fallback(self):
        # gamma^2 - 1 = 8 has no square root mod 6, yet unions of boost
        # orbits still provide an odd dispersion
        disp = build_dispersion(6, 3)
        assert disp.j_table == (0, 1, 1, 0, 5, 5)
        assert graph_is_invariant(disp.j_table, 6, 3)
        lattice = equivalence_classes(6, 3)
        res = greens_function(disp, route="exact")
        assert s_lorentz(res.p_tensor, lattice) < 1e-12
        assert np.abs(res.matrix.real).max() < 1e-12

    def test_failure_is_explicit(self):
        # gamma^2 - 1 = 3 is not a square mod 5 and no orbit cover exists
        with pytest.raises(DispersionError) as err:
            build_dispersion(5, 2)
        assert "orbit sizes" in str(err.value)


@pytest.fixture(scope="module")
def disp():
    return build_dispersion(33, 2)


@pytest.fixture(scope="module")
def lattice():
    return equivalence_classes(33, 2)


@pytest.fixture(scope="module")
def clean(disp):
    return greens_function(disp)


class TestGreensFunction:
    def test_initial_column_is_delta(self, clean):
        col = np.abs(clean.matrix[:, 0])
        assert col[0] == pytest.approx(1.0, abs=1e-12)
        assert col[1:].max() < 1e-12

    def test_initial_column_is_delta_with_noise(self, disp):
        noisy = greens_function(disp, NoiseModel(0.05, seed=4))
        col = np.abs(noisy.matrix[:, 0])
        assert col[0] == pytest.approx(1.0, abs=1e-12)

    def test_probability_conservation(self, clean, disp):
        assert np.abs(clean.p_tensor.sum(axis=2) - 1).max() < 1e-10
        noisy = greens_function(disp, NoiseModel(0.05, seed=4))
        assert np.abs(noisy.p_tensor.sum(axis=2) - 1).max() < 1e-10

    def test_lorentz_equality_classwise(self, clean, lattice):
        G = clean.matrix
        for orbit in lattice.classes:
            vals = np.array([G[n, m] for m, n in orbit])
            assert np.abs(vals - vals[0]).max() < 1e-10

    def test_purely_imaginary(self, clean):
        assert np.abs(clean.matrix.real).max() < 1e-10

    def test_routes_agree(self, disp, clean):
        exact = greens_function(disp, route="exact")
        assert np.abs(clean.matrix - exact.matrix).max() < 1e-9

    def test_exact_route_lorentz(self, disp, lattice):
        G = greens_function(disp, route="exact").matrix
        for orbit in lattice.classes:
            vals = np.array([G[n, m] for m, n in orbit])
            assert np.abs(vals - vals[0]).max() < 1e-10

    def test_unknown_route(self, disp):
        with pytest.raises(ValueError):
            greens_function(disp, route="telepathy")


class TestSymmetryMetrics:
    def test_sl_zero_without_noise(self, lattice, clean):
        assert s_lorentz(clean.p_tensor, lattice) < 1e-10

    def test_sl_zero_for_classwise_constant(self, lattice):
        N = lattice.n_sites
        values = np.cos(np.arange(len(lattice.classes)))
        P = np.broadcast_to(values[lattice.class_of], (N, N, N)).copy()
        assert s_lorentz(P, lattice) < 1e-14

    def test_sl_positive_under_noise(self, disp, lattice):
        P = greens_function(disp, NoiseModel(2e-2, seed=6)).p_tensor
        assert s_lorentz(P, lattice) > 1e-4

    def test_sp_zero_for_identical(self, clean):
        assert s_total(clean.p_tensor, clean.p_tensor) == 0.0

    def test_sp_nonnegative_and_visible_at_2em2(self, disp, clean):
        P = greens_function(disp, NoiseModel(2e-2, seed=6)).p_tensor
        sp = s_total(P, clean.p_tensor)
        assert sp >= 0.0
        assert sp > 5e-3  # revival pattern visibly degraded

    def test_sp_shape_mismatch(self, clean):
        with pytest.raises(ValueError):
            s_total(clean.p_tensor[:5], clean.p_tensor)


class TestNoiseSweep:
    def test_monotone_trend_small_case(self):
        points = noise_sweep_symmetry(6, 2, [0.0, 5e-3, 5e-2], 8, seed=3)
        sls = [p.mean("sl") for p in points]
        sps = [p.mean("sp") for p in points]
        assert sls[0] < 1e-10 and sps[0] == 0.0
        assert sls[0] < sls[1] < sls[2]
        assert sps[0] < sps[1] < sps[2]

    def test_worker_invariance(self):
        serial = noise_sweep_symmetry(6, 2, [1e-2], 6, seed=11)
        threaded = noise_sweep_symmetry(6, 2, [1e-2], 6, seed=11, workers=3)
        assert np.array_equal(serial[0].samples["sl"],
                              threaded[0].samples["sl"])
        assert np.array_equal(serial[0].samples["sp"],
                              threaded[0].samples["sp"])

    def test_zero_realizations_rejected(self):
        with pytest.raises(ValueError):
            noise_sweep_symmetry(6, 2, [1e-2], 0, seed=1)
