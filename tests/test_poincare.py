import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qqft import circuit, cli, engine, poincare
from qqft.engine import NoiseModel
from qqft.poincare import (
    DispersionError,
    build_dispersion,
    equivalence_classes,
    greens_function,
    lorentz_map,
    noise_sweep_symmetry,
    s_lorentz,
    s_total,
)
from test_engine import MIXED_BLOCK, MIXED_MEMBERS


def symmetry_points(N, gamma, *args, **kwargs):
    """The SweepPoints of `noise_sweep_symmetry` for the (N, gamma) crystal."""
    return noise_sweep_symmetry(build_dispersion(N, gamma), *args,
                                **kwargs)[0]


def exact_greens(disp, block=engine.NOISELESS):
    """The propagators of `greens_function` with the exact DFT matrix in
    place of the compiled Fourier transform, one per member of `block`: the
    independent reference for the compiled route."""
    V_f = circuit.dft_matrix(disp.n_sites)
    return [poincare._greens_one(disp.phases(scale), V_f, V_f.conj().T,
                                 disp.levels[1])
            for scale in engine.diagonal_scale(block).tolist()]


def graph_is_invariant(j_table, N, gamma):
    """Whether {(m, j(m))} is closed under the boost acting on (m, j)."""
    graph = {(m, j_table[m] % N) for m in range(N)}
    return all(lorentz_map(m, j, gamma, N) in graph for m, j in graph)


def greens_reference(disp, block=engine.NOISELESS):
    """G and P of the one member of `block`, one stroboscopic time m at a
    time, P = Re(U)^2 + Im(U)^2 by np.roll, twice: from U(m tau) of the
    grouped product sum_j D^m_j A_j, taken in one product over every m as
    greens_function takes it (the reference for its indexing), and from the
    per-momentum sum V^dag D^m V."""
    N = disp.n_sites
    j = np.array(disp.j_table)
    values = sorted(set(disp.j_table))
    ((V_f,),), ((V_i,),) = engine.fourier_pair(N, block, 1)
    scale, = engine.diagonal_scale(block).tolist()
    m = np.arange(N)[:, None]

    def table(j):
        if scale == 1.0:
            return np.exp(-2j * np.pi * ((j * m) % N) / N)
        return np.exp(-2j * np.pi * scale * j * m / N)

    A = np.stack([V_i[:, j == v] @ V_f[j == v] for v in values])
    grouped = (table(np.array(values)) @ A.reshape(len(values), -1)).reshape(
        N, N, N)
    phases = table(j)
    out = []
    for U_of in (lambda m: grouped[m], lambda m: V_i @ (phases[m][:, None] * V_f)):
        G = np.zeros((N, N), dtype=complex)
        P = np.zeros((N, N, N))
        for m in range(N):
            U = np.eye(N, dtype=complex) if m == 0 else U_of(m)
            G[:, m] = -1j * U[:, 0]
            prob = U.real ** 2 + U.imag ** 2
            for n1 in range(N):
                P[n1, m, :] = np.roll(prob[:, n1], -n1)
        out.append((G, P))
    return out


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
        # the columns of L are the images of (1, 0) and (0, 1), before mod N
        for gamma in (2, 3, 6):
            (a, c), (b, d) = (lorentz_map(1, 0, gamma, 1000),
                              lorentz_map(0, 1, gamma, 1000))
            assert a * d - b * c == 1


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

    @pytest.mark.parametrize("N,gamma", [(33, 2), (18, 2), (16, 3), (6, 3)])
    def test_matches_plain_walk(self, N, gamma):
        # orbits started at each unseen (m, n) in row-major order, walked by
        # lorentz_map: the same classes, in the same order, and class_of
        seen, classes = {}, []
        for start in ((m, n) for m in range(N) for n in range(N)):
            orbit, pt = [], start
            while pt not in seen:
                seen[pt] = len(classes)
                orbit.append(pt)
                pt = lorentz_map(*pt, gamma, N)
            if orbit:
                classes.append(tuple(orbit))
        lattice = equivalence_classes(N, gamma)
        assert lattice.classes == tuple(classes)
        assert lattice.class_of.shape == (N, N)
        assert lattice.class_of.tolist() == [[seen[m, n] for n in range(N)]
                                             for m in range(N)]

    def test_rejects_small_gamma(self):
        with pytest.raises(ValueError):
            equivalence_classes(9, 1)
        # and an N or gamma that is not an integer, which once ended in a
        # bare TypeError (or, for N = True, in a 1 x 1 lattice)
        for N, gamma in ((33.0, 2), (9, 2.0), (True, 2)):
            with pytest.raises(ValueError, match="must be an integer"):
                equivalence_classes(N, gamma)

    def test_lattices_compare_by_orbits(self):
        # the generated __eq__ once compared the class_of arrays and raised
        assert equivalence_classes(6, 2) == equivalence_classes(6, 2)
        assert hash(equivalence_classes(6, 2)) == hash(equivalence_classes(6, 2))
        assert equivalence_classes(6, 2) != equivalence_classes(6, 3)


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

    def test_orbit_cover_fallback(self):
        # gamma^2 - 1 = 8 has no square root mod 6, yet unions of boost
        # orbits still provide an odd dispersion
        disp = build_dispersion(6, 3)
        assert disp.j_table == (0, 1, 1, 0, 5, 5)
        assert graph_is_invariant(disp.j_table, 6, 3)
        res, = exact_greens(disp)
        assert s_lorentz(res.p_tensor, disp.lattice) < 1e-12
        assert np.abs(res.matrix.real).max() < 1e-12

    def test_failure_is_explicit(self):
        # gamma^2 - 1 = 3 is not a square mod 5 and no orbit cover exists
        with pytest.raises(DispersionError) as err:
            build_dispersion(5, 2)
        assert "orbit sizes" in str(err.value)

    def test_rejects_propagators_above_max_dim(self):
        # N^3 entries per propagator: at most MAX_DIM^2, so N <= 256
        with pytest.raises(ValueError, match="N=257 gives 257\\^3 propagator "
                                             "entries, which exceeds 4096\\^2"):
            build_dispersion(257, 2)

    def test_failure_counts_orbits_per_size(self):
        # one count per orbit size, so the line stays short as N grows: it
        # listed all 1087 orbit sizes, 4429 characters, at N = 161
        with pytest.raises(DispersionError) as err:
            build_dispersion(161, 4)
        assert str(err.value).endswith(
            "boost orbit sizes (counts): 1 (1), 6 (8), 24 (1078)")
        assert len(str(err.value)) < 200

    def test_search_stop_is_explicit(self, monkeypatch):
        # (16, 3) finds its first nontrivial cover after more than 8 search
        # nodes, and (5, 2) ends its search without a cover within 8
        monkeypatch.setattr(poincare, "_MAX_ORBIT_NODES", 8)
        with pytest.raises(DispersionError, match="search stopped after 8 nodes"):
            build_dispersion(16, 3)
        with pytest.raises(DispersionError, match="orbit sizes"):
            build_dispersion(5, 2)

    # the onset-table cases: linear tables and orbit covers, gamma 2 to 6
    @pytest.mark.parametrize("N,gamma", [(33, 2), (6, 2), (8, 3), (18, 2),
                                         (30, 2), (6, 3), (12, 3), (16, 3),
                                         (32, 3), (35, 6)])
    def test_every_candidate_is_boost_closed(self, N, gamma):
        # build_dispersion does not filter by graph_is_invariant: both
        # candidate families are closed under the boost by construction
        candidates = (poincare._linear_dispersions(N, gamma)
                      or poincare._orbit_cover_dispersions(
                          equivalence_classes(N, gamma)))
        assert candidates
        assert all(graph_is_invariant(t, N, gamma) for t in candidates)

    @staticmethod
    def count_lattices(monkeypatch):
        """One entry per `equivalence_classes` call."""
        calls = []
        build = equivalence_classes

        def spy(N, gamma):
            calls.append((N, gamma))
            return build(N, gamma)

        monkeypatch.setattr(poincare, "equivalence_classes", spy)
        return calls

    @pytest.mark.parametrize("N,gamma", [(33, 2), (16, 3), (5, 2)],
                             ids=["linear", "orbit-cover", "none"])
    def test_lattice_built_once(self, monkeypatch, N, gamma):
        calls = self.count_lattices(monkeypatch)
        try:
            disp = build_dispersion(N, gamma)
        except DispersionError:
            disp = None
        assert calls == [(N, gamma)]
        if disp is not None:
            assert disp.lattice.classes == equivalence_classes(N, gamma).classes

    def test_cli_builds_lattice_once(self, monkeypatch, tmp_path):
        calls = self.count_lattices(monkeypatch)
        assert cli.main(["poincare", "--N", "16", "--gamma", "3",
                         "--realizations", "2", "--sigma", "0,1e-2",
                         "--out", str(tmp_path)]) == 0
        assert calls == [(16, 3)]

    def test_lattice_not_compared(self):
        a, b = build_dispersion(33, 2), build_dispersion(33, 2)
        assert a.lattice is not b.lattice
        assert a == b and hash(a) == hash(b)
        assert "lattice" not in repr(a)


@pytest.fixture(scope="module")
def disp():
    return build_dispersion(33, 2)


@pytest.fixture(scope="module")
def lattice(disp):
    return disp.lattice


@pytest.fixture(scope="module")
def clean(disp):
    return next(greens_function(disp))


class TestGreensFunction:
    def test_initial_column_is_delta(self, clean):
        col = np.abs(clean.matrix[:, 0])
        assert col[0] == pytest.approx(1.0, abs=1e-12)
        assert col[1:].max() < 1e-12

    def test_initial_column_is_delta_with_noise(self, disp):
        noisy = next(greens_function(disp, [NoiseModel(0.05, seed=4)]))
        col = np.abs(noisy.matrix[:, 0])
        assert col[0] == pytest.approx(1.0, abs=1e-12)

    def test_probability_conservation(self, clean, disp):
        assert np.abs(clean.p_tensor.sum(axis=2) - 1).max() < 1e-10
        noisy = next(greens_function(disp, [NoiseModel(0.05, seed=4)]))
        assert np.abs(noisy.p_tensor.sum(axis=2) - 1).max() < 1e-10

    def test_lorentz_equality_classwise(self, clean, lattice):
        G = clean.matrix
        for orbit in lattice.classes:
            vals = np.array([G[n, m] for m, n in orbit])
            assert np.abs(vals - vals[0]).max() < 1e-10

    def test_purely_imaginary(self, clean):
        assert np.abs(clean.matrix.real).max() < 1e-10

    def test_routes_agree(self, disp, clean):
        exact, = exact_greens(disp)
        assert np.abs(clean.matrix - exact.matrix).max() < 1e-9

    def test_exact_route_lorentz(self, disp, lattice):
        G = exact_greens(disp)[0].matrix
        for orbit in lattice.classes:
            vals = np.array([G[n, m] for m, n in orbit])
            assert np.abs(vals - vals[0]).max() < 1e-10

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from([(33, 2), (16, 3), (6, 3)]),
           sigma=st.sampled_from([0.0, 1e-3, 5e-2]),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           on_diagonal=st.booleans())
    def test_batched_matches_m_loop_reference(self, case, sigma, seed,
                                              on_diagonal):
        disp = build_dispersion(*case)
        block = ([NoiseModel(sigma, seed=seed, diagonal=on_diagonal)]
                 if sigma > 0 else engine.NOISELESS)
        result, = greens_function(disp, block)
        (G, P), (G_k, P_k) = greens_reference(disp, block)
        assert result.matrix.tobytes() == G.tobytes()
        assert result.p_tensor.tobytes() == P.tobytes()
        # the grouped sum is the per-momentum one up to roundoff
        assert np.abs(result.matrix - G_k).max() < 1e-13
        assert np.abs(result.p_tensor - P_k).max() < 1e-13

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from([(33, 2), (16, 3), (6, 3)]),
           column=st.lists(st.sampled_from([0.0, 5e-324, 1e-3, 5e-2]),
                           min_size=1, max_size=5),
           seed=st.integers(min_value=0, max_value=2**32 - 1),
           on_diagonal=st.booleans(), route=st.sampled_from(["qqft", "exact"]))
    @example(case=(33, 2), column=[0.0, 5e-324, 5e-2, 5e-2], seed=9,
             on_diagonal=True, route="qqft")
    @example(case=(16, 3), column=[5e-324, 1e-3, 0.0], seed=4,
             on_diagonal=True, route="exact")
    def test_batch_matches_one_at_a_time(self, case, column, seed,
                                         on_diagonal, route):
        # "exact" runs the same check on the exact-DFT helper
        greens = {"qqft": greens_function, "exact": exact_greens}[route]
        disp = build_dispersion(*case)
        results = list(greens(
            disp, [NoiseModel(tuple(column), seed=seed, stream_id=3,
                              diagonal=on_diagonal)]))
        assert len(results) == len(column)
        for sigma, got in zip(column, results):
            noise = NoiseModel(sigma, seed=seed, stream_id=3, diagonal=on_diagonal)
            alone, = greens(disp, [noise])
            assert got.matrix.tobytes() == alone.matrix.tobytes()
            assert got.p_tensor.tobytes() == alone.p_tensor.tobytes()
            if noise.sigma == 0.0:          # the exact, noise-free path
                clean, = greens(disp)
                assert got.matrix.tobytes() == clean.matrix.tobytes()

    @pytest.mark.parametrize("case", [(6, 2), (16, 3), (33, 2)])
    def test_mixed_block_members_in_order(self, case):
        disp = build_dispersion(*case)
        results = list(greens_function(disp, MIXED_BLOCK))
        assert len(results) == len(MIXED_MEMBERS)
        for got, member in zip(results, MIXED_MEMBERS):
            alone, = greens_function(disp, [member])
            assert got.matrix.tobytes() == alone.matrix.tobytes()
            assert got.p_tensor.tobytes() == alone.p_tensor.tobytes()
        G = [r.matrix.tobytes() for r in results]
        assert G[0] == G[1] and len(set(G[1:])) == 3

    @pytest.mark.parametrize("case", [(33, 2), (18, 2)])
    def test_p_tensor_matches_dense_oracle(self, case):
        # P[n1, m, n] = |(V_i D^m V_f)[(n1 + n) % N, n1]|^2 from one dense
        # product per m, in long double so that the oracle's own roundoff
        # stays well below the bound; m = 0 applies no gates
        disp = build_dispersion(*case)
        N = disp.n_sites
        block = [NoiseModel(2e-2, seed=5)]
        got, = greens_function(disp, block)
        ((V_f,),), ((V_i,),) = engine.fourier_pair(N, block, 1)
        V_f, V_i = V_f.astype(np.clongdouble), V_i.astype(np.clongdouble)
        j, n = np.array(disp.j_table), np.arange(N)
        P = np.empty((N, N, N), dtype=np.longdouble)
        for m in range(N):
            D = np.exp(-2j * np.pi * ((j * m) % N) / N)
            U = np.eye(N) if m == 0 else V_i @ (D[:, None] * V_f)
            for n1 in range(N):
                P[n1, m] = np.abs(U[(n1 + n) % N, n1]) ** 2
        assert np.abs(got.p_tensor - P).max() < 1e-15
        assert np.abs(got.p_tensor.sum(axis=2) - 1).max() < 1e-12

    def test_empty_block_gives_no_propagators(self):
        assert list(greens_function(build_dispersion(6, 2), [])) == []

    @pytest.mark.parametrize("case", [(6, 2), (16, 3), (33, 2)])
    @pytest.mark.parametrize("on_diagonal", [False, True])
    @pytest.mark.parametrize("column", [(0.0, 1e-3, 5e-2), (1e-3, 0.0, 5e-2),
                                        (1e-3, 5e-2, 0.0)])
    def test_clean_is_zero_member_of_stream_0_column(self, case, on_diagonal,
                                                     column):
        # the sweep takes its clean reference from realization 0's column
        disp = build_dispersion(*case)
        clean = next(greens_function(disp))
        results = list(greens_function(
            disp, [NoiseModel(column, seed=7, diagonal=on_diagonal)]))
        zero = results[column.index(0.0)]
        assert zero.matrix.tobytes() == clean.matrix.tobytes()
        assert zero.p_tensor.tobytes() == clean.p_tensor.tobytes()


class TestSymmetryMetrics:
    def test_sl_zero_without_noise(self, lattice, clean):
        assert s_lorentz(clean.p_tensor, lattice) < 1e-10

    def test_sl_zero_for_classwise_constant(self, lattice):
        N = len(lattice.class_of)
        values = np.cos(np.arange(len(lattice.classes)))
        P = np.broadcast_to(values[lattice.class_of], (N, N, N)).copy()
        assert s_lorentz(P, lattice) < 1e-14

    def test_sl_positive_under_noise(self, disp, lattice):
        P = next(greens_function(disp, [NoiseModel(2e-2, seed=6)])).p_tensor
        assert s_lorentz(P, lattice) > 1e-4

    def test_sp_zero_for_identical(self, clean):
        assert s_total(clean.p_tensor, clean.p_tensor) == 0.0

    def test_sp_nonnegative_and_visible_at_2em2(self, disp, clean):
        P = next(greens_function(disp, [NoiseModel(2e-2, seed=6)])).p_tensor
        sp = s_total(P, clean.p_tensor)
        assert sp >= 0.0
        assert sp > 5e-3  # revival pattern visibly degraded

    def test_sp_shape_mismatch(self, clean):
        with pytest.raises(ValueError):
            s_total(clean.p_tensor[:5], clean.p_tensor)


class TestNoiseSweep:
    def test_monotone_trend_small_case(self):
        points = symmetry_points(6, 2, NoiseModel((0.0, 5e-3, 5e-2), 3), 8)
        sls = [p.mean("sl") for p in points]
        sps = [p.mean("sp") for p in points]
        assert sls[0] < 1e-10 and sps[0] == 0.0
        assert sls[0] < sls[1] < sls[2]
        assert sps[0] < sps[1] < sps[2]

    def test_worker_invariance(self):
        serial = symmetry_points(6, 2, NoiseModel((1e-2,), 11), 6)
        threaded = symmetry_points(6, 2, NoiseModel((1e-2,), 11), 6, workers=3)
        assert np.array_equal(serial[0].samples["sl"],
                              threaded[0].samples["sl"])
        assert np.array_equal(serial[0].samples["sp"],
                              threaded[0].samples["sp"])

    @staticmethod
    def spy_on_greens(monkeypatch):
        """The block argument of every greens_function call, in order."""
        calls = []
        batched = greens_function

        def spy(disp, block=engine.NOISELESS):
            calls.append(block)
            return batched(disp, block)

        monkeypatch.setattr(poincare, "greens_function", spy)
        return calls

    @pytest.mark.parametrize("sigmas", [[0.0, 1e-3, 1e-2], [1e-3, 0.0, 1e-2],
                                        [1e-2, 1e-3]])
    def test_call_pattern(self, monkeypatch, sigmas):
        calls = self.spy_on_greens(monkeypatch)
        symmetry_points(6, 2, NoiseModel(sigmas, 8), 6)
        # one clean call for the reference of s_total, then one call per
        # block of four consecutive realizations: realization 0 is stream 0
        # at every sigma, in the given order; realization r >= 1 is one
        # column of the nonzero sigmas on stream r
        nonzero = tuple(s for s in sigmas if s != 0)
        columns = [NoiseModel(tuple(sigmas), 8)] + [
            NoiseModel(nonzero, 8, stream_id=r) for r in range(1, 6)]
        assert calls == [engine.NOISELESS, columns[:4], columns[4:]]

    @pytest.mark.parametrize("sigmas", [[1e-3, 0.0, 1e-2], [1e-2, 1e-3], [0.0]])
    def test_greens_are_realization_0(self, sigmas):
        disp = build_dispersion(6, 2)
        noise = NoiseModel(sigmas, 4, diagonal=True)
        _, greens = noise_sweep_symmetry(disp, noise, 2)
        column = greens_function(disp, [NoiseModel(tuple(sigmas), 4, diagonal=True)])
        assert list(greens) == sigmas
        for sigma, g in zip(sigmas, column):
            assert greens[sigma].tobytes() == g.matrix.tobytes()

    def test_worker_invariance_n33_uneven_split(self):
        # 3 realizations on 2 workers: one worker runs two columns
        sigmas = [0.0, 1e-3, 2e-2]
        serial = symmetry_points(33, 2, NoiseModel(sigmas, 17), 3)
        pooled = symmetry_points(33, 2, NoiseModel(sigmas, 17), 3, workers=2)
        for a, b in zip(serial, pooled):
            for name in ("sl", "sp"):
                assert a.samples[name].tobytes() == b.samples[name].tobytes()

    def test_zero_realizations_rejected(self):
        with pytest.raises(ValueError):
            symmetry_points(6, 2, NoiseModel((1e-2,), 1), 0)

    def test_realization_count_error_names_the_parameter(self):
        with pytest.raises(ValueError, match=r"^n_realizations must be an "
                           r"integer >= 1, got 2\.0$"):
            symmetry_points(6, 2, NoiseModel((1e-2,), 1), 2.0)

    @pytest.mark.parametrize("noise", [NoiseModel(1e-2, 1),
                                       NoiseModel((1e-2,), 1, stream_id=3)])
    def test_scalar_sigma_or_nonzero_stream_rejected(self, noise):
        with pytest.raises(ValueError, match="column of sigmas on stream 0"):
            symmetry_points(6, 2, noise, 2)

    def test_noise_on_diagonal_reaches_samples(self):
        plain, diag = (symmetry_points(6, 2, NoiseModel((0.0, 1e-2), 5,
                                                        diagonal=flag), 3)
                       for flag in (False, True))
        for name in ("sl", "sp"):
            assert np.array_equal(plain[0].samples[name], diag[0].samples[name])
            assert not np.array_equal(plain[1].samples[name],
                                      diag[1].samples[name])
