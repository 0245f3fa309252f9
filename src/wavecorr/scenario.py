"""Declarative scenarios: JSON configs, builtin setups, and file export.

A scenario names one interferometer configuration and how to run it
(analytic closed form, Monte-Carlo ensemble, or a single coherent
field) plus the files to write. Builtin scenarios reproduce the
standard sodium-lamp setup: reference arm of 18.3 cm air plus 15.5 cm
glass (n = 1.5163), a 125/300 um double slit, a two-glyph amplitude
mask, a pi-stepped phase-hole pair, and the five object positions that
sweep the effective diffraction length through zero.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .cascade import MediumSegment, imaging_positions
from .ensemble import EnsembleConfig, run_coherent, run_ensemble
from .errors import (InvalidArgumentError, ScenarioValidationError,
                     UnequalPathError)
from .grid import OpticsContext, make_grid
from .interferometer import (CorrelationResult, InterferometerSpec,
                             PortIntensities, background_intensity,
                             correlation_analytic, correlation_analytic_2d,
                             detector_ports)
from .transmittance import (double_slit, phase_holes, raster_to_transmittance,
                            read_pgm, uniform)

_MODES = ("analytic", "ensemble", "coherent")
_OUTPUT_KINDS = ("correlation_csv", "ports_csv", "image_pgm")
#: source-grid sampling used for ensemble scenarios
_SOURCE_SAMPLES = 512


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description (all lengths in meters)."""

    name: str
    mode: str
    wavelength: float
    z_o1: float
    z_o2: float
    reference_segments: tuple  # of (length, index)
    object_descriptor: dict
    grid_half_width: float
    grid_n_samples: int
    source_intensity: float
    source_width: float
    outputs: tuple  # of (kind, path)
    grid_center: float = 0.0
    ensemble_settings: tuple = None  # (n_realizations, seed)
    coherent_settings: tuple = None  # (source, pinhole_width or None)

    def to_dict(self):
        d = {
            "name": self.name,
            "mode": self.mode,
            "wavelength": self.wavelength,
            "z_o1": self.z_o1,
            "z_o2": self.z_o2,
            "reference_segments": [
                {"length": l, "index": n} for l, n in self.reference_segments],
            "object": dict(self.object_descriptor),
            "grid": {"half_width": self.grid_half_width,
                     "n_samples": self.grid_n_samples,
                     "center": self.grid_center},
            "source": {"intensity": self.source_intensity,
                       "width": self.source_width},
        }
        if self.ensemble_settings is not None:
            d["ensemble"] = {"n_realizations": self.ensemble_settings[0],
                             "seed": self.ensemble_settings[1]}
        if self.coherent_settings is not None:
            c = {"source": self.coherent_settings[0]}
            if self.coherent_settings[1] is not None:
                c["pinhole_width"] = self.coherent_settings[1]
            d["coherent"] = c
        d["outputs"] = [{"kind": k, "path": p} for k, p in self.outputs]
        return d


def _want(d, key, path, types, required=True, default=None):
    if key not in d:
        if required:
            raise ScenarioValidationError(f"{path}{key}", "missing field")
        return default
    value = d[key]
    if types is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioValidationError(f"{path}{key}", "must be a number")
        return float(value)
    if types is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ScenarioValidationError(f"{path}{key}", "must be an integer")
        return value
    if not isinstance(value, types):
        raise ScenarioValidationError(
            f"{path}{key}", f"must be of type {types}")
    return value


def _reject_unknown(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ScenarioValidationError(f"{path}{key}", "unknown field")


def _positive(value, path):
    if not value > 0:
        raise ScenarioValidationError(path, "must be positive")
    return value


def _validate_object(d):
    kind = _want(d, "kind", "object.", str)
    known = {
        "double_slit": {"kind", "b", "d"},
        "phase_holes": {"kind", "hole_width", "separation", "phase_shift"},
        "raster": {"kind", "pitch", "path", "pixels"},
        "uniform": {"kind", "value"},
    }
    if kind not in known:
        raise ScenarioValidationError("object.kind", f"unknown kind {kind!r}")
    _reject_unknown(d, known[kind], "object.")
    if kind == "double_slit":
        _positive(_want(d, "b", "object.", float), "object.b")
        _positive(_want(d, "d", "object.", float), "object.d")
        if d["b"] >= d["d"]:
            raise ScenarioValidationError("object.b", "slits overlap (b >= d)")
    elif kind == "phase_holes":
        _positive(_want(d, "hole_width", "object.", float), "object.hole_width")
        _positive(_want(d, "separation", "object.", float), "object.separation")
        _want(d, "phase_shift", "object.", float)
        if d["hole_width"] >= d["separation"]:
            raise ScenarioValidationError("object.hole_width",
                                          "holes overlap")
    elif kind == "raster":
        _positive(_want(d, "pitch", "object.", float), "object.pitch")
        has_path = "path" in d
        has_pixels = "pixels" in d
        if has_path == has_pixels:
            raise ScenarioValidationError(
                "object.path", "raster needs exactly one of path or pixels")
        if has_path:
            _want(d, "path", "object.", str)
        else:
            px = _want(d, "pixels", "object.", list)
            if not px or not all(isinstance(r, list) and r for r in px):
                raise ScenarioValidationError(
                    "object.pixels", "must be a non-empty list of rows")
    else:
        value = d.get("value", 1.0)
        if isinstance(value, list):
            if len(value) != 2:
                raise ScenarioValidationError(
                    "object.value", "complex value must be [re, im]")
        elif not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioValidationError("object.value", "must be a number")
    return dict(d)


def config_from_dict(raw):
    """Validate a parsed JSON document into a ScenarioConfig.

    Raises ScenarioValidationError carrying the offending field path.
    """
    if not isinstance(raw, dict):
        raise ScenarioValidationError("<root>", "config must be a JSON object")
    allowed = {"name", "mode", "wavelength", "z_o1", "z_o2",
               "reference_segments", "object", "grid", "source",
               "ensemble", "coherent", "outputs"}
    _reject_unknown(raw, allowed, "")

    name = _want(raw, "name", "", str)
    if not name:
        raise ScenarioValidationError("name", "must be non-empty")
    mode = _want(raw, "mode", "", str)
    if mode not in _MODES:
        raise ScenarioValidationError("mode", f"must be one of {_MODES}")
    wavelength = _positive(_want(raw, "wavelength", "", float), "wavelength")
    z_o1 = _positive(_want(raw, "z_o1", "", float), "z_o1")
    z_o2 = _positive(_want(raw, "z_o2", "", float), "z_o2")

    segs = _want(raw, "reference_segments", "", list)
    if not segs:
        raise ScenarioValidationError("reference_segments", "must be non-empty")
    segments = []
    for i, seg in enumerate(segs):
        path = f"reference_segments[{i}]."
        if not isinstance(seg, dict):
            raise ScenarioValidationError(path[:-1], "must be an object")
        length = _positive(_want(seg, "length", path, float), path + "length")
        index = _want(seg, "index", path, float)
        if index == 0:
            raise ScenarioValidationError(path + "index", "must be nonzero")
        _reject_unknown(seg, ("length", "index"), path)
        segments.append((length, index))

    obj = _validate_object(_want(raw, "object", "", dict))

    grid_d = _want(raw, "grid", "", dict)
    _reject_unknown(grid_d, ("half_width", "n_samples", "center"), "grid.")
    half_width = _positive(_want(grid_d, "half_width", "grid.", float),
                           "grid.half_width")
    n_samples = _want(grid_d, "n_samples", "grid.", int)
    if n_samples < 2:
        raise ScenarioValidationError("grid.n_samples", "must be >= 2")
    center = _want(grid_d, "center", "grid.", float, required=False,
                   default=0.0)

    source_d = _want(raw, "source", "", dict)
    _reject_unknown(source_d, ("intensity", "width"), "source.")
    intensity = _positive(_want(source_d, "intensity", "source.", float),
                          "source.intensity")
    width = _positive(_want(source_d, "width", "source.", float),
                      "source.width")

    ens = None
    if mode == "ensemble":
        ens_d = _want(raw, "ensemble", "", dict)
        _reject_unknown(ens_d, ("n_realizations", "seed"), "ensemble.")
        n_real = _want(ens_d, "n_realizations", "ensemble.", int)
        if n_real < 1:
            raise ScenarioValidationError("ensemble.n_realizations",
                                          "must be >= 1")
        seed = _want(ens_d, "seed", "ensemble.", int)
        if not 0 <= seed < 2 ** 64:
            raise ScenarioValidationError("ensemble.seed",
                                          "must fit in 64 bits")
        ens = (n_real, seed)
    elif "ensemble" in raw:
        raise ScenarioValidationError(
            "ensemble", "only applies to ensemble mode")

    coh = None
    if mode == "coherent":
        coh_d = _want(raw, "coherent", "", dict, required=False,
                      default={"source": "plane_wave"})
        _reject_unknown(coh_d, ("source", "pinhole_width"), "coherent.")
        src = _want(coh_d, "source", "coherent.", str, required=False,
                    default="plane_wave")
        if src not in ("plane_wave", "pinhole"):
            raise ScenarioValidationError(
                "coherent.source", "must be plane_wave or pinhole")
        pw = None
        if src == "pinhole":
            pw = _positive(_want(coh_d, "pinhole_width", "coherent.", float),
                           "coherent.pinhole_width")
        elif "pinhole_width" in coh_d:
            raise ScenarioValidationError("coherent.pinhole_width",
                                          "only applies to pinhole source")
        coh = (src, pw)
    elif "coherent" in raw:
        raise ScenarioValidationError(
            "coherent", "only applies to coherent mode")

    outs = _want(raw, "outputs", "", list)
    is_2d = obj["kind"] == "raster"
    allowed_kinds = {
        "analytic": ("image_pgm",) if is_2d
        else ("correlation_csv", "ports_csv", "image_pgm"),
        "ensemble": ("correlation_csv", "ports_csv", "image_pgm"),
        "coherent": ("ports_csv", "image_pgm"),
    }[mode]
    outputs = []
    for i, out in enumerate(outs):
        path = f"outputs[{i}]."
        if not isinstance(out, dict):
            raise ScenarioValidationError(path[:-1], "must be an object")
        _reject_unknown(out, ("kind", "path"), path)
        kind = _want(out, "kind", path, str)
        if kind not in _OUTPUT_KINDS:
            raise ScenarioValidationError(
                path + "kind", f"must be one of {_OUTPUT_KINDS}")
        if kind not in allowed_kinds:
            raise ScenarioValidationError(
                path + "kind",
                f"{kind} is not available for this mode/object "
                f"(allowed: {allowed_kinds})")
        fpath = _want(out, "path", path, str)
        if not fpath:
            raise ScenarioValidationError(path + "path", "must be non-empty")
        outputs.append((kind, fpath))
    if mode == "ensemble" and ens is None:
        raise ScenarioValidationError("ensemble", "missing field")

    return ScenarioConfig(
        name=name, mode=mode, wavelength=wavelength, z_o1=z_o1, z_o2=z_o2,
        reference_segments=tuple(segments), object_descriptor=obj,
        grid_half_width=half_width, grid_n_samples=n_samples,
        grid_center=center, source_intensity=intensity, source_width=width,
        ensemble_settings=ens, coherent_settings=coh,
        outputs=tuple(outputs))


def _build_object(descriptor, base_dir):
    kind = descriptor["kind"]
    if kind == "double_slit":
        return double_slit(descriptor["b"], descriptor["d"])
    if kind == "phase_holes":
        return phase_holes(descriptor["hole_width"], descriptor["separation"],
                           descriptor["phase_shift"])
    if kind == "raster":
        if "pixels" in descriptor:
            pixels = descriptor["pixels"]
        else:
            path = os.path.join(base_dir, descriptor["path"])
            try:
                pixels = read_pgm(path)
            except (OSError, InvalidArgumentError) as exc:
                raise ScenarioValidationError("object.path", str(exc)) from exc
        return raster_to_transmittance(pixels, descriptor["pitch"])
    value = descriptor.get("value", 1.0)
    if isinstance(value, list):
        value = complex(value[0], value[1])
    return uniform(value)


def _build_spec(config, base_dir):
    ctx = OpticsContext(config.wavelength)
    segments = tuple(MediumSegment(l, n)
                     for l, n in config.reference_segments)
    obj = _build_object(config.object_descriptor, base_dir)
    try:
        return InterferometerSpec(
            ctx=ctx, z_o1=config.z_o1, z_o2=config.z_o2,
            reference_segments=segments, object=obj,
            source_width=config.source_width,
            source_intensity=config.source_intensity)
    except UnequalPathError as exc:
        raise ScenarioValidationError("z_o1", str(exc)) from exc


@dataclass(frozen=True)
class OutputBundle:
    """What a scenario run produced: files plus the resolved ledger."""

    files: tuple  # of (path, sha256 hex digest)
    optical_path: float
    diffraction_length: float
    z_eff: float
    z_o2_img: float


def _normalize_to_bytes(a):
    a = np.asarray(a, dtype=float)
    lo, hi = a.min(), a.max()
    if hi == lo:
        scaled = np.zeros(a.shape)
    else:
        scaled = (a - lo) / (hi - lo) * 255.0
    return np.rint(scaled).astype(np.uint8)


def export(result, kind, path):
    """Write one result file; returns the path written.

    correlation_csv: columns x_m, re, im, abs2 (abs2 = re^2 + im^2).
    ports_csv: columns x_m, i_plus, i_minus, diff, sum.
    image_pgm: binary P5, min-max normalized to 0..255; 2D images are
    written top row first (descending y); constant data maps to zeros.
    All numbers use 17 significant digits.
    """
    if kind == "correlation_csv":
        x = result.grid.coordinates()
        with open(path, "w", newline="") as fh:
            fh.write("x_m,re,im,abs2\n")
            for xi, ci in zip(x, result.correlation):
                re, im = ci.real, ci.imag
                fh.write(f"{xi:.17g},{re:.17g},{im:.17g},{re * re + im * im:.17g}\n")
    elif kind == "ports_csv":
        x = result.grid.coordinates()
        with open(path, "w", newline="") as fh:
            fh.write("x_m,i_plus,i_minus,diff,sum\n")
            for xi, p, m, df in zip(x, result.i_plus, result.i_minus,
                                    result.diff):
                fh.write(f"{xi:.17g},{p:.17g},{m:.17g},{df:.17g},"
                         f"{p + m:.17g}\n")
    elif kind == "image_pgm":
        if hasattr(result, "correlation"):
            data = np.abs(result.correlation)
        elif hasattr(result, "i_plus"):
            data = result.i_plus
        else:
            data = np.asarray(result, dtype=float)
        if data.ndim == 1:
            img = _normalize_to_bytes(data)[None, :]
        else:
            img = _normalize_to_bytes(data)[::-1, :]
        rows, cols = img.shape
        with open(path, "wb") as fh:
            fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
            fh.write(img.tobytes())
    else:
        raise ScenarioValidationError("outputs.kind", f"unknown kind {kind}")
    return path


def _coherent_ports(spec, grid, settings):
    source, pinhole_width = settings or ("plane_wave", None)
    kw = dict(source=source, pinhole_width=pinhole_width)
    total = run_coherent(spec, grid, **kw)
    i_o = run_coherent(spec, grid, block="reference", **kw)
    i_r = run_coherent(spec, grid, block="object", **kw)
    background = i_o + i_r
    return PortIntensities(
        grid=grid,
        i_plus=total / 2,
        i_minus=background - total / 2,
        diff=total - background,
        background=background,
    )


def run_scenario(config, out_dir=None, echo=print):
    """Execute a scenario (path to a JSON file, or a ScenarioConfig).

    Writes the declared outputs (relative paths land in out_dir, default
    the current directory), prints the resolved ledger summary, and
    returns an OutputBundle with sha256 checksums.
    """
    base_dir = os.getcwd()
    if not isinstance(config, ScenarioConfig):
        config_path = os.fspath(config)
        base_dir = os.path.dirname(os.path.abspath(config_path))
        with open(config_path) as fh:
            config = config_from_dict(json.load(fh))
    out_dir = out_dir or os.getcwd()

    spec = _build_spec(config, base_dir)
    led = spec.reference_ledger
    z_eff = spec.z_eff
    imaging = imaging_positions(led, config.z_o1 + config.z_o2)

    echo(f"scenario {config.name} [{config.mode}]")
    echo(f"Z = {led.optical_path * 100:.4g} cm")
    echo(f"Zbar = {led.diffraction_length * 100:.4g} cm")
    echo(f"z_o2_img = {imaging.z_o2_img * 100:.4g} cm")
    if z_eff == 0:
        echo("Z_eff = 0 cm (imaging point)")
    else:
        echo(f"Z_eff = {z_eff * 100:.4g} cm")

    grid = make_grid(config.grid_center, config.grid_half_width,
                     config.grid_n_samples)
    results = {}
    needed = {kind for kind, _ in config.outputs}
    if config.mode == "analytic":
        if spec.object.ndim == 2:
            corr = correlation_analytic_2d(spec, grid)
        else:
            corr = correlation_analytic(spec, grid)
        results["correlation"] = corr
        if "ports_csv" in needed:
            bg = background_intensity(spec, grid)
            results["ports"] = detector_ports(corr, bg)
    elif config.mode == "ensemble":
        n_real, seed = config.ensemble_settings
        source_grid = make_grid(0.0, config.source_width / 2,
                                _SOURCE_SAMPLES)
        est = run_ensemble(EnsembleConfig(
            spec=spec, source_grid=source_grid, detector_grid=grid,
            n_realizations=n_real, master_seed=seed))
        corr = CorrelationResult(grid, est.correlation_mean, z_eff,
                                 prefactor=None, warnings=est.warnings)
        results["correlation"] = corr
        results["ports"] = detector_ports(
            corr, est.intensity_o + est.intensity_r)
    else:
        results["ports"] = _coherent_ports(spec, grid,
                                           config.coherent_settings)

    for source_key in ("correlation", "ports"):
        res = results.get(source_key)
        if res is not None and getattr(res, "warnings", ()):
            for w in res.warnings:
                echo(f"warning: {w}")

    files = []
    for kind, rel_path in config.outputs:
        path = rel_path if os.path.isabs(rel_path) else os.path.join(
            out_dir, rel_path)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if kind == "correlation_csv":
            export(results["correlation"], kind, path)
        elif kind == "ports_csv":
            export(results["ports"], kind, path)
        else:
            res = results.get("correlation", results.get("ports"))
            export(res, kind, path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        files.append((path, digest))
        echo(f"wrote {path} sha256={digest}")

    return OutputBundle(
        files=tuple(files),
        optical_path=led.optical_path,
        diffraction_length=led.diffraction_length,
        z_eff=z_eff,
        z_o2_img=imaging.z_o2_img,
    )


# builtin scenario parameters: sodium lamp, air + glass reference arm
_LAMBDA = 589.3e-9
_GLASS_INDEX = 1.5163
_GLASS_LENGTH = 0.155
_AIR_LENGTH = 0.183
_REF_SEGMENTS = ({"length": _AIR_LENGTH, "index": 1.0},
                 {"length": _GLASS_LENGTH, "index": _GLASS_INDEX})
_Z_REF = _AIR_LENGTH + _GLASS_INDEX * _GLASS_LENGTH
_ZBAR_REF = _AIR_LENGTH + _GLASS_LENGTH / _GLASS_INDEX
_SLIT = {"kind": "double_slit", "b": 125e-6, "d": 300e-6}
_SOURCE = {"intensity": 1.0, "width": 0.01}


def _glyph_pixels():
    """Two-glyph amplitude mask: a hollow square and a cross."""
    square = (["X" * 10] + ["X" + "." * 8 + "X"] * 10 + ["X" * 10])
    rows = []
    for r in range(12):
        cross = "X" * 10 if r in (5, 6) else "...." + "XX" + "...."
        rows.append(square[r] + "." * 6 + cross)
    return [[255 if ch == "X" else 0 for ch in row] for row in rows]


def _base(name, mode, z_o1, grid_half, grid_n, obj, outputs, **extra):
    d = {
        "name": name,
        "mode": mode,
        "wavelength": _LAMBDA,
        "z_o1": z_o1,
        "z_o2": _Z_REF - z_o1,
        "reference_segments": [dict(s) for s in _REF_SEGMENTS],
        "object": obj,
        "grid": {"half_width": grid_half, "n_samples": grid_n, "center": 0.0},
        "source": dict(_SOURCE),
    }
    d.update(extra)
    d["outputs"] = outputs
    return config_from_dict(d)


def builtin_scenarios():
    """The nine named reproductions of the reference experiments."""
    configs = [
        _base("fig2_amplitude", "analytic", _ZBAR_REF, 1.2e-3, 512,
              {"kind": "raster", "pixels": _glyph_pixels(), "pitch": 60e-6},
              [{"kind": "image_pgm", "path": "fig2_amplitude_image.pgm"}]),
        _base("fig2_phase", "analytic", _ZBAR_REF, 1.0e-3, 2048,
              {"kind": "phase_holes", "hole_width": 200e-6,
               "separation": 500e-6, "phase_shift": math.pi},
              [{"kind": "correlation_csv", "path": "fig2_phase_correlation.csv"},
               {"kind": "ports_csv", "path": "fig2_phase_ports.csv"}]),
        _base("fig3_incoherent", "ensemble", _ZBAR_REF, 0.5e-3, 1024,
              dict(_SLIT),
              [{"kind": "correlation_csv",
                "path": "fig3_incoherent_correlation.csv"},
               {"kind": "ports_csv", "path": "fig3_incoherent_ports.csv"}],
              ensemble={"n_realizations": 2000, "seed": 20260816}),
        _base("fig3_coherent", "coherent", _ZBAR_REF, 4.0e-3, 4096,
              dict(_SLIT),
              [{"kind": "ports_csv", "path": "fig3_coherent_ports.csv"}],
              coherent={"source": "pinhole", "pinhole_width": 50e-6}),
    ]
    for label, z_o1 in (("a", 0.310), ("b", _ZBAR_REF), ("c", 0.242),
                        ("d", 0.200), ("e", 0.106)):
        name = f"fig4{label}"
        configs.append(_base(
            name, "analytic", z_o1, 2.0e-3, 4096, dict(_SLIT),
            [{"kind": "correlation_csv", "path": f"{name}_correlation.csv"}]))
    return configs
