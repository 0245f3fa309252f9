"""End-to-end acceptance gate.

One check per shipped claim, each printing a single PASS/FAIL line
(run with -s to see them on success; failures carry the same line in
the assertion message). Tolerances here are the advertised ones, not
the much tighter values the unit suite pins, so a pass means the
package meets what the README promises with margin.
"""

import time

import numpy as np

from wavecorr import (
    ComplexField,
    EnsembleConfig,
    InterferometerSpec,
    MediumSegment,
    OpticsContext,
    PathLedger,
    background_intensity,
    correlation_analytic,
    correlation_brute_force,
    detector_ports,
    double_slit,
    effective_diffraction_length,
    fresnel_kernel,
    imaging_positions,
    kernel_scale,
    ledger,
    make_grid,
    phase_holes,
    propagate,
    run_coherent,
    run_ensemble,
    vacuum,
)
from wavecorr._kernels import chirp_sum
from wavecorr.propagation import chirp_nodes

CTX = OpticsContext(589.3e-9)
REF_SEGMENTS = (vacuum(0.183), MediumSegment(0.155, 1.5163))
REF = ledger(REF_SEGMENTS)
SLIT = double_slit(125e-6, 300e-6)


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _ncc(a, b):
    a = np.asarray(a, dtype=float) - np.mean(a)
    b = np.asarray(b, dtype=float) - np.mean(b)
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def _spec(z_o1, obj, ref=REF_SEGMENTS):
    led = ledger(ref)
    return InterferometerSpec(CTX, z_o1, led.optical_path - z_o1, ref, obj,
                              source_width=0.010)


def _rounded_segments():
    # air + glass pair whose ledger lands on the rounded totals
    # Z = 0.418, Zbar = 0.285 (to within one ulp)
    n = 1.5163
    glass = (0.418 - 0.285) / (n - 1.0 / n)
    air = 0.418 - n * glass
    return (vacuum(air), MediumSegment(glass, n))


def test_criterion_01_ledger_reproduction():
    z = REF.optical_path
    zbar = REF.diffraction_length
    ok = abs(z - 0.418) <= 5e-4 and abs(zbar - 0.285) <= 5e-4
    _report(1, "ledger-reproduction", ok,
            f"Z = {100 * z:.4f} cm vs 41.8, Zbar = {100 * zbar:.4f} cm vs 28.5,"
            " tol 0.05 cm")


def test_criterion_02_imaging_positions():
    pos = imaging_positions(REF, REF.optical_path)
    ok = abs(pos.z_o2_img - 0.133) <= 5e-4
    _report(2, "imaging-positions", ok,
            f"z_o2_img = {100 * pos.z_o2_img:.4f} cm vs 13.3, tol 0.05 cm")


def test_criterion_03_effective_length_table():
    z_o1_cm = (31.0, 28.5, 24.2, 20.0, 10.6)
    expected_cm = (2.0, 0.0, -5.7, -13.9, -42.0)
    worst = 0.0
    for led in (REF, PathLedger(0.418, 0.285)):
        for z1, want in zip(z_o1_cm, expected_cm):
            z_o1 = z1 / 100.0
            z_o2 = led.optical_path - z_o1
            z_eff = effective_diffraction_length(z_o1, z_o2, led)
            worst = max(worst, abs(100.0 * z_eff - want))
    ok = worst <= 0.2
    _report(3, "effective-length-table", ok,
            f"max |Z_eff - table| = {worst:.3f} cm over both ledger "
            "conventions, tol 0.2 cm")


def test_criterion_04_imaging_reconstruction():
    grid = make_grid(0.0, 2e-3, 4096)
    t_ref = SLIT.sample(grid.coordinates()).real
    start = time.perf_counter()
    worst = 1.0
    for segments in (REF_SEGMENTS, _rounded_segments()):
        led = ledger(segments)
        spec = InterferometerSpec(CTX, led.diffraction_length,
                                  led.optical_path - led.diffraction_length,
                                  segments, SLIT, source_width=0.010)
        res = correlation_analytic(spec, grid)
        worst = min(worst, _ncc(res.correlation.real, t_ref))
    elapsed = time.perf_counter() - start
    ok = worst >= 0.99 and elapsed <= 10.0
    _report(4, "imaging-reconstruction", ok,
            f"min NCC = {worst:.6f} over both ledger conventions, "
            f"threshold 0.99, {elapsed:.2f} s")


def test_criterion_05_phase_reversal_identity():
    grid = make_grid(0.0, 0.5e-3, 256)
    spec = _spec(0.242, SLIT)
    res = correlation_analytic(spec, grid)
    assert res.z_eff < 0
    x = grid.coordinates()
    support = SLIT.support()
    u_max = max(abs(x[0] - support[-1][1]), abs(x[-1] - support[0][0]))
    nodes, weights, counts = chirp_nodes(support, SLIT.min_feature(),
                                         CTX.wavelength, res.z_eff, u_max)
    ze = abs(res.z_eff)
    forward = kernel_scale(CTX, 0.0, ze) * chirp_sum(
        x, nodes, SLIT.sample(nodes) * weights, CTX.k0 / (2 * ze), counts,
        weights[np.cumsum(counts) - counts])
    normalized = res.correlation / res.prefactor
    rel = (np.linalg.norm(normalized - np.conj(forward))
           / np.linalg.norm(forward))
    ok = rel <= 1e-6
    _report(5, "phase-reversal-identity", ok,
            f"Z_eff = {100 * res.z_eff:.2f} cm, rel L2 vs conjugate forward "
            f"pattern = {rel:.3e}, tol 1e-6")


def test_criterion_06_phase_contrast_imaging():
    holes = phase_holes(100e-6, 400e-6, np.pi)
    spec = _spec(REF.diffraction_length, holes)
    grid = make_grid(0.0, 0.5e-3, 1024)
    res = correlation_analytic(spec, grid)
    ports = detector_ports(res, background_intensity(spec, grid))
    x = grid.coordinates()
    first = np.abs(x + 200e-6) < 25e-6
    second = np.abs(x - 200e-6) < 25e-6
    re = res.correlation.real
    signs = (np.all(re[first] > 0) and np.all(re[second] < 0)
             and np.all(ports.diff[first] > 0)
             and np.all(ports.diff[second] < 0))
    _report(6, "phase-contrast-imaging", signs,
            f"Re C on holes: {re[first].mean():+.3e} / {re[second].mean():+.3e},"
            f" port diff: {ports.diff[first].mean():+.3e} /"
            f" {ports.diff[second].mean():+.3e}")


def test_criterion_07_background_cancellation():
    spec = _spec(REF.diffraction_length, SLIT)
    grid = make_grid(0.0, 2e-3, 4096)
    res = correlation_analytic(spec, grid)
    bg = background_intensity(spec, grid)
    ports = detector_ports(res, bg)
    variation = float(np.max(np.abs(ports.port_sum() - bg) / bg))
    exact = bool(np.array_equal(ports.diff, 2.0 * res.correlation.real))
    ok = variation <= 1e-12 and exact
    _report(7, "background-cancellation", ok,
            f"port-sum slit residual = {variation:.3e} (tol 1e-12), "
            f"diff == 2 Re C exactly: {exact}")


def test_criterion_08_monte_carlo_convergence():
    # one seed pair is too noisy to gate on: over 100 single pairs rel <=
    # 0.05 held for 67 % and the 1.6-2.4 band for 94 %. So both read the
    # RMS over k independent pairs (about 0.047 and 1.98 over those 100).
    # Over 60 draws of k = 64 pairs from random seed bases none failed:
    # RMS rel read 0.0434-0.0476 (std 0.0010, 4.2 std below 0.05) and
    # the ratio 1.93-2.07 (std 0.03), a false-failure rate near 1e-5 on
    # a normal tail
    spec = _spec(REF.diffraction_length, SLIT)
    source_grid = make_grid(0.0, 0.005, 512)
    detector_grid = make_grid(0.0, 0.25e-3, 1024)
    k = 64
    start = time.perf_counter()
    brute = correlation_brute_force(spec, detector_grid)
    # camera-pixel averages (62.5 um = 128 grid samples each), complex
    # means first so speckle noise cancels instead of rectifying
    analytic = correlation_analytic(spec, detector_grid).correlation
    pix = lambda c: c.reshape(8, 128).mean(axis=1)
    rel2 = err2_big = err2_small = 0.0
    for i in range(k):
        big = run_ensemble(EnsembleConfig(spec, source_grid, detector_grid,
                                          n_realizations=5000,
                                          master_seed=314159 + i))
        small = run_ensemble(EnsembleConfig(spec, source_grid, detector_grid,
                                            n_realizations=1250,
                                            master_seed=951413 + i))
        rel2 += (np.linalg.norm(pix(big.correlation_mean) - pix(analytic))
                 / np.linalg.norm(pix(analytic))) ** 2
        err2_big += np.linalg.norm(big.correlation_mean - brute) ** 2
        err2_small += np.linalg.norm(small.correlation_mean - brute) ** 2
    elapsed = time.perf_counter() - start

    rel = np.sqrt(rel2 / k)
    ratio = np.sqrt(err2_small / err2_big)
    ok = rel <= 0.05 and 1.6 <= ratio <= 2.4 and elapsed <= 120.0
    _report(8, "monte-carlo-convergence", ok,
            f"RMS over {k} seed pairs: N=5000 vs analytic rel L2 = "
            f"{rel:.4f} (tol 0.05), error ratio N=1250/N=5000 = "
            f"{ratio:.3f} vs 2.0 +-20%, {elapsed:.1f} s")


def test_criterion_09_coherent_contrast():
    spec = _spec(REF.diffraction_length, SLIT)
    grid = make_grid(0.0, 2e-3, 4096)
    t_ref = SLIT.sample(grid.coordinates()).real
    coherent_ncc = _ncc(run_coherent(spec, grid).diff, t_ref)
    res = correlation_analytic(spec, grid)
    incoherent_ncc = _ncc(2.0 * res.correlation.real, t_ref)
    ok = coherent_ncc <= 0.9 and incoherent_ncc >= 0.99
    _report(9, "coherent-contrast", ok,
            f"coherent NCC = {coherent_ncc:.3f} (<= 0.9), incoherent NCC = "
            f"{incoherent_ncc:.6f} (>= 0.99)")


def test_criterion_10_numerical_core():
    # energy conservation of the unitary transfer-function route
    grid = make_grid(0.0, 2e-3, 512)
    x = grid.coordinates()
    gauss = ComplexField(grid, np.exp(-(x / 3e-4) ** 2).astype(complex))
    out = propagate(CTX, gauss, 0.02, 0.02)
    energy_rel = abs(out.power() / gauss.power() - 1.0)

    # spectral propagation against the direct-quadrature definition, at
    # regime ratio 0.75 on the transfer function route
    grid2 = make_grid(0.0, 2e-3, 1024)
    x2 = grid2.coordinates()
    field = ComplexField(grid2, np.exp(-(x2 / 50e-6) ** 2).astype(complex))
    fft_route = propagate(CTX, field, 0.0, 0.02)
    h = fresnel_kernel(CTX, x2[:, None], x2[None, :], 0.0, 0.02)
    direct = h @ field.values * grid2.spacing
    fft_rel = np.linalg.norm(fft_route.values - direct) / np.linalg.norm(direct)

    # two hops equal one combined hop; out and back returns the input
    slit_vals = SLIT.sample(x2)
    masked = ComplexField(grid2, slit_vals.astype(complex))
    two_hop = propagate(CTX, propagate(CTX, masked, 0.1, 0.01), 0.2, 0.01)
    one_hop = propagate(CTX, masked, 0.3, 0.02)
    semi_rel = (np.linalg.norm(two_hop.values - one_hop.values)
                / np.linalg.norm(one_hop.values))
    there = propagate(CTX, masked, 0.1, 0.015)
    back = propagate(CTX, there, -0.1, -0.015)
    round_rel = (np.linalg.norm(back.values - masked.values)
                 / np.linalg.norm(masked.values))

    # the two closed forms of the effective length agree
    dual_worst = 0.0
    z_o2_img = imaging_positions(REF, REF.optical_path).z_o2_img
    for z_o1 in (0.242, 0.26, 0.31, 0.35, 0.40):
        z_o2 = REF.optical_path - z_o1
        z_eff = effective_diffraction_length(z_o1, z_o2, REF)
        alt = z_o2 * (1.0 - z_o2 / z_o2_img)
        dual_worst = max(dual_worst, abs(z_eff - alt) / abs(alt))

    ok = (energy_rel <= 1e-10 and fft_rel <= 1e-6
          and semi_rel <= 1e-6 and round_rel <= 1e-6 and dual_worst <= 1e-12)
    _report(10, "numerical-core", ok,
            f"energy {energy_rel:.2e} (1e-10), fft-vs-direct {fft_rel:.2e} "
            f"(1e-6), semigroup {semi_rel:.2e} (1e-6), round-trip "
            f"{round_rel:.2e} (1e-6), dual-formula {dual_worst:.2e} (1e-12)")
