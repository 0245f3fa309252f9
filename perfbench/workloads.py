"""The benchmark's four workloads: seeded inputs, timed ops and their gates.

Each workload is a fixed list of ops built from the workload seed. The
runner times `Op.run` and nothing else. `Workload.references` names the
oracle references; the runner computes them in a separate process
before timing, so that their memory and imports stay out of the
measured one. `Op.check(output, references)` (gate plus output digest)
runs after each op, untimed. Every call into wavecorr goes through a
module attribute (`interferometer.correlation_analytic`, not a name
imported by value), so the tracer can wrap it.

Why each workload exists, what it loads and what it bypasses is written
up in RATIONALE.md next to this file.
"""

import contextlib
import hashlib
import io
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

import oracles
from oracles import TOLERANCES

from wavecorr import (cascade, cli, ensemble, grid, interferometer, scenario,
                      transmittance)

WAVELENGTH = 589.3e-9
# the standard reference arm: 18.3 cm air, then 15.5 cm glass
SEGMENTS = ((0.183, 1.0), (0.155, 1.5163))
SOURCE_WIDTH = 0.01
SOURCE_SAMPLES = 512
# records, spans and builtin output files, inside the checkout
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".perfbench_out")
# relative geometry jitter; small, so that the cost of an op varies by
# well under the benchmark's bounds from one seed to the next
JITTER = 0.005


@dataclass
class Op:
    """One timed call; `near` is the input's regime (see `is_near`)."""

    name: str
    run: object          # () -> output, timed
    check: object        # (output, references) -> (passed, {gate: error}, digest)
    near: bool


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Op
    # fixed per workload so that a faster engine (more samples per run)
    # still reports the same percentile; chosen so that about ten samples
    # lie beyond it at the seed engine's op count for a 20 s run
    tail_percentile: float
    inputs: dict
    # reference name -> () -> ndarray, computed outside the measured process
    references: dict
    cleanup: object = None


def is_near(z_eff, n, half_width):
    """lam |Z_eff| <= N dx^2: where `propagate` picks the transfer function."""
    dx = 2.0 * half_width / n
    return WAVELENGTH * abs(z_eff) <= n * dx * dx


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _jitter(rng):
    return 1.0 + JITTER * rng.uniform(-1.0, 1.0)


def _reference():
    segs = tuple(cascade.MediumSegment(l, n) for l, n in SEGMENTS)
    return segs, cascade.ledger(segs)


def _positions(z_eff, led):
    """(z_o1, z_o2) on the equal-path line with effective length z_eff.

    With L = Z - Zbar and delta = z_o1 - Zbar, Z_eff = delta (L - delta) / L;
    take the root with the object nearer Zbar.
    """
    length = led.optical_path - led.diffraction_length
    delta = 0.0 if z_eff == 0 else (
        length - math.sqrt(length * length - 4.0 * length * z_eff)) / 2.0
    z_o1 = led.diffraction_length + delta
    return z_o1, led.optical_path - z_o1


def _slit(rng):
    b = 125e-6 * _jitter(rng)
    d = 300e-6 * _jitter(rng)
    apertures = [(-d / 2 - b / 2, -d / 2 + b / 2, 1.0),
                 (d / 2 - b / 2, d / 2 + b / 2, 1.0)]
    return transmittance.double_slit(b, d), apertures, {"b": b, "d": d}


def _closed_form_op(key, name, run, tol, near):
    """An analytic-engine op gated against closed-form reference `key`."""

    def check(out, refs):
        passed, err = oracles.gate_close(out.correlation, refs[key], tol)
        return passed, {"closed_form": err}, digest(out.correlation)

    return Op(name, run, check, near)


# ------------------------------------------------------------ workloads

def defocus_sweep(seed, tiny=False):
    """correlation_analytic on a double slit, Z_eff swept through zero."""
    rng = np.random.default_rng(seed)
    ctx = grid.OpticsContext(WAVELENGTH)
    segs, led = _reference()
    slit, apertures, dims = _slit(rng)
    if tiny:
        points = [(256, 2e-3, z) for z in (0.0, 32e-3, -5e-3)]
        points += [(1024, 2e-3, 32e-3)]
    else:
        points = [(4096, 2e-3, 0.0)]
        for z in (32e-3, 12e-3, 5e-3, 2e-3, 0.8e-3):
            points += [(4096, 2e-3, z), (4096, 2e-3, -z)]
        # detector-dense: the imaging point, and far field where chirp_sum
        # runs few nodes per point
        points += [(2 ** 15, 2e-3, z) for z in (0.0, 32e-3, -32e-3)]
    ops, refs = [], {}
    for i, (n, half, z) in enumerate(points):
        z = z * _jitter(rng)
        z_o1, z_o2 = _positions(z, led)
        spec = interferometer.InterferometerSpec(
            ctx, z_o1, z_o2, segs, slit, SOURCE_WIDTH)
        det = grid.make_grid(0.0, half, n)
        geom = oracles.Geometry(WAVELENGTH, z_o1, z_o2, SEGMENTS)
        x = oracles.grid_coordinates(0.0, half, n)
        refs[f"op{i}"] = lambda g=geom, x=x: oracles.correlation_1d(
            g, apertures, x)
        ops.append(_closed_form_op(
            f"op{i}", f"analytic N={n} Z_eff={z * 1e3:+.4g}mm",
            lambda s=spec, d=det: interferometer.correlation_analytic(s, d),
            TOLERANCES["closed_form_1d"], is_near(geom.z_eff, n, half)))
    # the cheapest op that runs the chirp quadrature
    warmup = ops[1]
    return Workload("defocus_sweep", ops, warmup, 76.0,
                    {"slit": dims, "points": len(ops)}, refs)


def raster_2d(seed, tiny=False):
    """correlation_analytic_2d on a seeded binary raster."""
    rng = np.random.default_rng(seed)
    ctx = grid.OpticsContext(WAVELENGTH)
    segs, led = _reference()
    pitch = 60e-6
    # same 12 x 26 footprint as the builtin glyph mask
    pixels = (rng.random((12, 26)) < 0.5).astype(float)
    obj = transmittance.raster_to_transmittance(pixels * 255.0, pitch)
    if tiny:
        points = [(64, 0.3e-3, z) for z in (12e-3, -12e-3, 0.0)]
    else:
        # the near end stops at 5 mm: at 1 mm the glyph raster asks
        # sample2d for a 9.5 GiB array (see RATIONALE.md)
        points = [(256, 1.2e-3, z) for z in (30e-3, -30e-3, 12e-3, -12e-3,
                                              5e-3, -5e-3)]
        points += [(512, 1.2e-3, z) for z in (30e-3, -30e-3, 12e-3, -12e-3,
                                              0.0)]
    ops, refs = [], {}
    for i, (n, half, z) in enumerate(points):
        z = z * _jitter(rng)
        z_o1, z_o2 = _positions(z, led)
        spec = interferometer.InterferometerSpec(
            ctx, z_o1, z_o2, segs, obj, SOURCE_WIDTH)
        det = grid.make_grid(0.0, half, n)
        geom = oracles.Geometry(WAVELENGTH, z_o1, z_o2, SEGMENTS)
        x = oracles.grid_coordinates(0.0, half, n)
        refs[f"op{i}"] = lambda g=geom, x=x: oracles.correlation_2d(
            g, pixels, pitch, x)
        ops.append(_closed_form_op(
            f"op{i}", f"analytic_2d N={n}^2 Z_eff={z * 1e3:+.4g}mm",
            lambda s=spec, d=det: interferometer.correlation_analytic_2d(s, d),
            TOLERANCES["closed_form_2d"], is_near(geom.z_eff, n, half)))
    return Workload("raster_2d", ops, ops[0], 69.0,
                    {"pixels_on": int(pixels.sum()), "points": len(ops)},
                    refs)


def chaotic_ensemble(seed, tiny=False):
    """run_ensemble at the imaging point and one defocused position.

    Each position gets 10^4 realizations per pass, split into four runs
    of 2500 with independent master seeds, so that a 20 s run holds
    enough ops for a tail percentile. Each run is gated against the
    brute-force finite-source integral on the same geometry.
    """
    rng = np.random.default_rng(seed)
    ctx = grid.OpticsContext(WAVELENGTH)
    segs, led = _reference()
    slit, _, dims = _slit(rng)
    n_det, runs, realizations = (128, 1, 200) if tiny else (1024, 4, 2500)
    source = grid.make_grid(0.0, SOURCE_WIDTH / 2, SOURCE_SAMPLES)
    z_def = 0.242 * _jitter(rng)
    positions = [("imaging", led.diffraction_length, 0.25e-3),
                 ("defocused", z_def, 0.5e-3)]
    ops, refs = [], {}
    for label, z_o1, half in positions:
        spec = interferometer.InterferometerSpec(
            ctx, z_o1, led.optical_path - z_o1, segs, slit, SOURCE_WIDTH)
        det = grid.make_grid(0.0, half, n_det)
        geom = oracles.Geometry(WAVELENGTH, z_o1, led.optical_path - z_o1,
                                SEGMENTS)
        near = is_near(geom.z_eff, n_det, half)
        refs[label] = lambda s=spec, d=det: (
            interferometer.correlation_brute_force(s, d))

        def check(out, refs, label=label):
            passed, worst = oracles.gate_ensemble(
                out.correlation_mean, out.standard_error, refs[label],
                TOLERANCES["ensemble_k"])
            return (passed, {"brute_force_sigma": worst},
                    digest(out.correlation_mean, out.standard_error))

        for k in range(runs):
            config = ensemble.EnsembleConfig(
                spec, source, det, realizations,
                int(rng.integers(0, 2 ** 63)))
            ops.append(Op(
                f"ensemble {label} n={realizations} #{k}",
                lambda c=config: ensemble.run_ensemble(c), check, near))
    return Workload("chaotic_ensemble", ops, ops[0], 75.0,
                    {"slit": dims, "z_o1_defocused": z_def,
                     "realizations_per_op": realizations}, refs)


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    magic, size, maxval, rest = data.split(b"\n", 3)
    cols, rows = (int(v) for v in size.split())
    if magic != b"P5" or maxval != b"255" or len(rest) != rows * cols:
        raise ValueError(f"{path}: not a {cols}x{rows} P5 image")
    return np.frombuffer(rest, dtype=np.uint8).reshape(rows, cols)


def _to_levels(a):
    lo, hi = a.min(), a.max()
    scaled = np.zeros(a.shape) if hi == lo else (a - lo) / (hi - lo) * 255.0
    return np.rint(scaled)


def _object_reference(descriptor):
    """Apertures, or the raster's pixels in [0, 1], of a builtin's object."""
    kind = descriptor["kind"]
    if kind == "double_slit":
        b, d = descriptor["b"], descriptor["d"]
        return [(-d / 2 - b / 2, -d / 2 + b / 2, 1.0),
                (d / 2 - b / 2, d / 2 + b / 2, 1.0)]
    if kind == "phase_holes":
        h, s = descriptor["hole_width"], descriptor["separation"]
        return [(-s / 2 - h / 2, -s / 2 + h / 2, 1.0),
                (s / 2 - h / 2, s / 2 + h / 2,
                 np.exp(1j * descriptor["phase_shift"]))]
    return np.asarray(descriptor["pixels"], dtype=float) / 255.0


def _builtin_geometry(config):
    geom = oracles.Geometry(config.wavelength, config.z_o1, config.z_o2,
                            config.reference_segments,
                            config.source_intensity)
    x = oracles.grid_coordinates(config.grid_center, config.grid_half_width,
                                 config.grid_n_samples)
    return geom, x


def builtin_reference(config):
    """The closed-form reference a builtin's files are gated against.

    2D rasters: the correlation image. Coherent runs: (i_plus, sum) of
    the sampled pinhole and apertures. Otherwise the 1D correlation.
    """
    geom, x = _builtin_geometry(config)
    obj = _object_reference(config.object_descriptor)
    if config.mode == "coherent":
        width = config.coherent_settings[1]
        pinhole = oracles.sampled_edges(-width / 2, width / 2, x)
        apertures = [oracles.sampled_edges(lo, hi, x) + (value,)
                     for lo, hi, value in obj]
        return np.stack(oracles.coherent_ports(geom, pinhole, apertures, x))
    if config.object_descriptor["kind"] == "raster":
        return oracles.correlation_2d(
            geom, obj, config.object_descriptor["pitch"], x)
    return oracles.correlation_1d(geom, obj, x)


def _ports_gate(config, table, ref, tables):
    """(passed, error) for one ports CSV: x_m, i_plus, i_minus, diff, sum.

    The identities i_plus - i_minus = diff and i_plus + i_minus = sum
    only check that the file is well formed (export writes sum itself).
    The physics is gated per mode: the analytic diff against 2 Re of the
    closed form; the ensemble diff against the gated correlation CSV;
    coherent i_plus and sum against the two-arm Fresnel reference.
    """
    p, m, diff, total = table[:, 1:5].T
    scale = np.max(np.abs(total))
    err = float(max(np.max(np.abs(p - m - diff)),
                    np.max(np.abs(p + m - total))) / scale)
    ok = err <= TOLERANCES["port_identity"] and bool(np.all(total > 0))
    if config.mode == "analytic":
        ok_c, err_c = oracles.gate_close(diff, 2 * ref.real,
                                         TOLERANCES["closed_form_1d"])
    elif config.mode == "ensemble":
        corr = next(t for kind, t in tables if kind == "correlation_csv")
        ok_c, err_c = oracles.gate_close(diff, 2 * corr[:, 1],
                                         TOLERANCES["port_identity"])
    else:
        inner = np.abs(table[:, 0] - config.grid_center) <= (
            TOLERANCES["coherent_span"] * config.grid_half_width)
        ok_p, err_p = oracles.gate_close(p[inner], ref[0][inner],
                                         TOLERANCES["coherent_ports"])
        ok_s, err_s = oracles.gate_close(total[inner], ref[1][inner],
                                         TOLERANCES["coherent_ports"])
        ok_c, err_c = ok_p and ok_s, max(err_p, err_s)
    return ok and ok_c, max(err, err_c)


def _builtin_gates(config, out_dir, ref):
    """Gate every file a builtin wrote; returns (passed, errors, digests).

    `ref` is `builtin_reference(config)`. Every CSV must sit on the
    scenario's grid. Analytic correlations must match the closed form;
    the ensemble CSV must match it at camera-pixel scale; ports CSVs go
    through `_ports_gate`; the analytic image must match the reference
    image to one grey level.
    """
    _, x = _builtin_geometry(config)
    passed, errors, digests, tables = True, {}, {}, []
    for kind, rel_path in config.outputs:
        path = os.path.join(out_dir, rel_path)
        with open(path, "rb") as fh:
            digests[rel_path] = hashlib.sha256(fh.read()).hexdigest()
        if kind == "image_pgm":
            got = _read_pgm(path).astype(float)
            err = float(np.max(np.abs(got - _to_levels(np.abs(ref))[::-1])))
            ok = err <= TOLERANCES["pgm_levels"]
        else:
            table = _read_csv(path)
            tables.append((kind, table))
            on_grid = table.shape[0] == x.size and bool(np.allclose(
                table[:, 0], x, rtol=0.0, atol=1e-9 * config.grid_half_width))
            if kind == "ports_csv":
                ok, err = _ports_gate(config, table, ref, tables)
            else:
                c = table[:, 1] + 1j * table[:, 2]
                if config.mode == "ensemble":
                    bins = round(62.5e-6 / (x[1] - x[0]))
                    ok, err = oracles.gate_binned(
                        c, ref, bins, TOLERANCES["ensemble_binned_l2"])
                else:
                    ok, err = oracles.gate_close(
                        c, ref, TOLERANCES["closed_form_1d"])
            ok = ok and on_grid
        errors[rel_path] = err
        passed = passed and bool(ok)
    return passed, errors, digests


def builtin_suite(seed, tiny=False):
    """The nine builtins through the CLI entry point, in a seeded order."""
    rng = np.random.default_rng(seed)
    configs = {c.name: c for c in scenario.builtin_scenarios()}
    names = (["fig4b", "fig4a", "fig2_amplitude", "fig3_coherent"] if tiny
             else sorted(configs))
    names = [str(n) for n in rng.permutation(names)]
    root = os.path.join(OUT_DIR, f"builtin-{os.getpid()}")
    ops, refs = [], {}
    for name in names:
        config = configs[name]
        out_dir = os.path.join(root, name)
        z_eff = oracles.Geometry(config.wavelength, config.z_o1, config.z_o2,
                                 config.reference_segments).z_eff
        refs[name] = lambda config=config: builtin_reference(config)

        def run(name=name, out_dir=out_dir):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["run-builtin", name, "--out", out_dir])

        def check(rc, refs, config=config, out_dir=out_dir):
            if rc != 0:
                return False, {"exit_code": rc}, None
            return _builtin_gates(config, out_dir, refs[config.name])

        ops.append(Op(f"builtin {name}", run, check,
                      is_near(z_eff, config.grid_n_samples,
                              config.grid_half_width)))
    warmup = next(op for op in ops if op.name.endswith("fig4b"))
    return Workload("builtin_suite", ops, warmup, 93.0, {"order": names},
                    refs,
                    cleanup=lambda: shutil.rmtree(root, ignore_errors=True))


BUILDERS = {
    "defocus_sweep": defocus_sweep,
    "raster_2d": raster_2d,
    "chaotic_ensemble": chaotic_ensemble,
    "builtin_suite": builtin_suite,
}
