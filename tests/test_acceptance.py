"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line (run with ``pytest -s`` to see them; a failed
assertion means the criterion failed).  Criteria:

1. radix-2 compilation equals the DFT to 1e-10 for n = 1..6 with the
   closed-form step count, compiling in under a second.
2. generic-size compilation equals the DFT to 1e-10 for N in {3, 6, 33} with
   depth <= 2 N^2 (one constant across sizes).
3. noiseless flat band on a 16 x 16 grid: width 0 and gap 2 x (2 pi rad/ms)
   to 1e-9 at T = 1/(2 pi) ms.
4. noisy flat band at sigma = 2.5e-3, >= 100 realizations: the 95% CI upper
   bound of the mean width/gap ratio stays below 0.12, in under 10 minutes.
5. Bott index equals the sign-formula Chern number (+1/-1) in the clean
   limit, and at sigma = 3e-2 still rounds to the clean value for >= 80% of
   20 realizations at 5 interior points of each topological lobe.
6. spacetime crystal at N = 33, gamma = 2, sigma = 0: S_L < 1e-10,
   probability sums within 1e-10 of one, Re G < 1e-10 elementwise, and the
   compiled route matches the exact-DFT reference (`exact_greens` of
   test_poincare) within 1e-9.
7. S_L and S_P means over 100 samples are non-decreasing across
   sigma in {0, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2} (at most one inversion within
   one standard error) and decelerate toward saturation at the top: the
   log-log slope over the last interval must drop below 0.9 x the small-sigma
   slope.  (Strict flatness is not reached by sigma = 5e-2; the growth
   exponent falling from ~2 to ~1.6 is the onset of saturation.)
8. property suites: unitarity of noisy products, generator round trips,
   the class-partition identity, and bit-exact determinism under fixed
   seeds with any worker count.
"""

import time

import numpy as np
import pytest

from qqft import circuit, engine, haldane, poincare, protocol
from test_engine import gate_to_generator, unitarity_defect
from test_poincare import exact_greens

WORKERS = 4


def report(k, name, detail):
    print(f"\nACCEPTANCE {k} ({name}): PASS — {detail}")


def test_criterion_1_radix2_correctness():
    circuit.build_radix2_qqft.cache_clear()
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        seq = circuit.build_radix2_qqft(n)
        assert seq.depth == (n + 2) * 2 ** (n - 1) - n - 1
        U = circuit.sequence_to_unitary(seq)
        worst = max(worst, circuit.dft_distance(U))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    report(1, "radix-2 correctness",
           f"max error {worst:.2e}, depths exact, {elapsed:.2f}s")


def test_criterion_2_generic_correctness():
    worst = 0.0
    for N in (3, 6, 33):
        seq = circuit.build_generic_qqft(N)
        assert seq.depth <= 2 * N * N
        U = circuit.sequence_to_unitary(seq)
        worst = max(worst, circuit.dft_distance(U))
    assert worst < 1e-10
    report(2, "generic-N correctness",
           f"max error {worst:.2e}, depth <= 2 N^2 at N in {{3, 6, 33}}")


def test_criterion_3_flat_band_noiseless():
    p = haldane.HaldaneParams(phi=-np.pi / 2, M=0.0)
    model = haldane.momentum_model(p, grid=16)
    U, = protocol.build_protocol_unitary(model)
    spec = protocol.extract_spectrum(U, model.T, model.l)
    assert spec.band_width < 1e-9
    assert abs(spec.band_gap - 2 * haldane.TARGET_NORM) < 1e-9
    report(3, "flat band, noiseless",
           f"W = {spec.band_width:.2e}, G = {spec.band_gap:.12f} "
           f"(target {2 * haldane.TARGET_NORM:.12f})")


def test_criterion_4_flat_band_noisy():
    start = time.perf_counter()
    p = haldane.HaldaneParams(phi=-np.pi / 2, M=0.0)
    [point] = haldane.noise_sweep_gap_width(
        p, engine.NoiseModel((2.5e-3,), 20240814), n_realizations=100,
        grid=16, workers=WORKERS)
    ratios = point.samples["width"] / point.samples["gap"]
    mean = ratios.mean()
    ci_upper = mean + 1.96 * ratios.std(ddof=1) / np.sqrt(len(ratios))
    elapsed = time.perf_counter() - start
    assert ci_upper < 0.12
    assert elapsed < 600.0
    report(4, "flat band, noisy",
           f"mean W/G = {mean:.4f}, 95% CI upper = {ci_upper:.4f} < 0.12 "
           f"({len(ratios)} realizations, {elapsed:.0f}s)")


LOBE_POINTS = {
    +1: [(-np.pi / 2, 0.0), (-np.pi / 2, 1.0), (-np.pi / 2, -1.0),
         (-np.pi / 3, 0.5), (-2 * np.pi / 3, -0.5)],
    -1: [(np.pi / 2, 0.0), (np.pi / 2, 1.0), (np.pi / 2, -1.0),
         (np.pi / 3, 0.5), (2 * np.pi / 3, -0.5)],
}


def test_criterion_5_topology():
    for phi, expected in ((-np.pi / 2, 1), (np.pi / 2, -1)):
        p = haldane.HaldaneParams(phi=phi, M=0.0)
        assert haldane.chern_analytic(p) == expected
        model = haldane.momentum_model(p, grid=16)
        U, = protocol.build_protocol_unitary(model)
        b, _ = haldane.bott_index(U, model.T, model.l)
        assert round(b) == expected and abs(b - round(b)) < 1e-6

    n_real, needed = 20, 16  # >= 80%
    worst = n_real
    for clean_value, points in LOBE_POINTS.items():
        for phi, M in points:
            p = haldane.HaldaneParams(phi=phi, M=M)
            assert haldane.chern_analytic(p) == clean_value
            model = haldane.momentum_model(p, grid=16)

            def one(r):
                noise = engine.NoiseModel(3e-2, seed=77, stream_id=r)
                U, = protocol.build_protocol_unitary(model, [noise])
                return round(haldane.bott_index(U, model.T, model.l)[0])

            values = engine._map_ordered(one, n_real, WORKERS)
            hits = sum(v == clean_value for v in values)
            assert hits >= needed, (phi, M, hits)
            worst = min(worst, hits)
    report(5, "topology",
           f"clean Bott = analytic Chern at (0, -pi/2)/(0, +pi/2); at "
           f"sigma = 3e-2 worst lobe point scored {worst}/{n_real} "
           f"(threshold {needed})")


def test_criterion_6_poincare_symmetry():
    disp = poincare.build_dispersion(33, 2)
    clean = next(poincare.greens_function(disp))
    sl = poincare.s_lorentz(clean.p_tensor, disp.lattice)
    prob_dev = float(np.abs(clean.p_tensor.sum(axis=2) - 1).max())
    re_max = float(np.abs(clean.matrix.real).max())
    exact, = exact_greens(disp)
    route_dev = float(np.abs(clean.matrix - exact.matrix).max())
    assert sl < 1e-10
    assert prob_dev < 1e-10
    assert re_max < 1e-10
    assert route_dev < 1e-9
    report(6, "spacetime-crystal symmetry",
           f"S_L = {sl:.2e}, |sum P - 1| = {prob_dev:.2e}, "
           f"max|Re G| = {re_max:.2e}, route diff = {route_dev:.2e}")


def _loglog_slope(sigmas, means, i, j):
    return (np.log(means[j] / means[i]) / np.log(sigmas[j] / sigmas[i]))


def test_criterion_7_poincare_noise_trend():
    sigmas = [0.0, 1e-3, 5e-3, 1e-2, 2e-2, 5e-2]
    points, _ = poincare.noise_sweep_symmetry(
        poincare.build_dispersion(33, 2),
        engine.NoiseModel(sigmas, 5), 100, workers=WORKERS)
    for label, means, errs in (
        ("S_L", [p.mean("sl") for p in points], [p.stderr("sl") for p in points]),
        ("S_P", [p.mean("sp") for p in points], [p.stderr("sp") for p in points]),
    ):
        inversions = 0
        for i in range(len(sigmas) - 1):
            drop = means[i] - means[i + 1]
            if drop > np.hypot(errs[i], errs[i + 1]):
                inversions += 1
        assert inversions <= 1, (label, means)
        first = _loglog_slope(sigmas, means, 1, 2)
        last = _loglog_slope(sigmas, means, 4, 5)
        assert last <= 0.9 * first, (label, first, last)
    report(7, "spacetime-crystal noise trend",
           "monotone within error; growth exponent "
           f"S_L {_loglog_slope(sigmas, [p.mean('sl') for p in points], 1, 2):.2f}"
           f" -> {_loglog_slope(sigmas, [p.mean('sl') for p in points], 4, 5):.2f}, "
           f"S_P {_loglog_slope(sigmas, [p.mean('sp') for p in points], 1, 2):.2f}"
           f" -> {_loglog_slope(sigmas, [p.mean('sp') for p in points], 4, 5):.2f}")


def test_criterion_8_property_suites():
    # unitarity of every noisy sequence product
    worst_defect = 0.0
    for seq in (circuit.build_radix2_qqft(3), circuit.build_radix2_qqft(4),
                circuit.build_generic_qqft(6), circuit.build_generic_qqft(33)):
        for sigma in (1e-3, 3e-2, 0.2):
            for r in range(3):
                noise = engine.NoiseModel(sigma, seed=31, stream_id=r)
                U, = engine.apply_noisy_sequence(seq, [noise])
                worst_defect = max(worst_defect, unitarity_defect(U))
    assert worst_defect < 1e-10

    # generator round trip on all gate kinds
    gates = [circuit.GateSpec("swap", 0),
             circuit.GateSpec("mix", 0, theta=1.1, phi=-2.3),
             circuit.GateSpec("mix", 0, theta=np.pi / 4, phi=0.7),
             circuit.GateSpec("phase", 0, lam=2.9)]
    for g in gates:
        H = gate_to_generator(g)
        w, Q = np.linalg.eigh(H)
        U = (Q * np.exp(-1j * w)) @ Q.conj().T
        assert np.abs(U - circuit.gate_matrix(g)).max() < 1e-10

    # partition identity
    for N, gamma in ((33, 2), (10, 2), (16, 3), (21, 4)):
        assert poincare.equivalence_classes(N, gamma).sizes.sum() == N * N

    # determinism under fixed seeds, worker count varied
    p = haldane.HaldaneParams(phi=-np.pi / 2, M=0.0)
    noise = engine.NoiseModel((2e-3,), 13)
    a = haldane.noise_sweep_gap_width(p, noise, 6, grid=4)
    b = haldane.noise_sweep_gap_width(p, noise, 6, grid=4, workers=3)
    assert np.array_equal(a[0].samples["gap"], b[0].samples["gap"])
    assert np.array_equal(a[0].samples["width"], b[0].samples["width"])
    disp = poincare.build_dispersion(6, 2)
    noise = engine.NoiseModel((1e-2,), 13)
    sa, _ = poincare.noise_sweep_symmetry(disp, noise, 5)
    sb, _ = poincare.noise_sweep_symmetry(disp, noise, 5, workers=3)
    assert np.array_equal(sa[0].samples["sl"], sb[0].samples["sl"])
    assert np.array_equal(sa[0].samples["sp"], sb[0].samples["sp"])

    report(8, "property suites",
           f"max unitarity defect {worst_defect:.2e}; generator round trips, "
           "partition identity and worker-invariant determinism all hold")
