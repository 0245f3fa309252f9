"""Declarative scenarios: JSON configs, builtin setups, and file export.

A scenario names one interferometer configuration and how to run it
(analytic closed form, Monte-Carlo ensemble, or a single coherent
field) plus the files to write. Builtin scenarios reproduce the
standard sodium-lamp setup: reference arm of 18.3 cm air plus 15.5 cm
glass (n = 1.5163), a 125/300 um double slit, a two-glyph amplitude
mask, a pi-stepped phase-hole pair, and the five object positions that
sweep the effective diffraction length through zero.

One schema describes a config: `FIELDS`, with `OBJECT_KINDS` for the
object and `OUTPUT_KINDS` for the outputs. `config_from_dict` checks a
document against it and `ScenarioConfig.to_dict` writes one from it.
"""

import functools
import hashlib
import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .cascade import MediumSegment
from .ensemble import EnsembleConfig, run_coherent, run_ensemble
from .errors import (ConfigParseError, InvalidArgumentError,
                     ScenarioValidationError, UnequalPathError)
from .grid import OpticsContext, make_grid
from .interferometer import (CorrelationResult, InterferometerSpec,
                             background_intensity, correlation_analytic,
                             correlation_analytic_2d, detector_ports)
from .propagation import MAX_NODES
from .transmittance import (Transmittance, double_slit, phase_holes,
                            raster_to_transmittance, read_pgm, uniform)

#: source-grid sampling used for ensemble scenarios
_SOURCE_SAMPLES = 512
#: most realizations an ensemble scenario may ask for; a run sums
#: min(n, _SOURCE_SAMPLES) source rows, so any n above 512, the cap
#: included, costs what fig3_incoherent's 2000 does
MAX_REALIZATIONS = 2 ** 20
#: the results a run of each mode makes; an analytic run on a raster
#: makes only the 2D correlation, "image"
_MODE_RESULTS = {"analytic": ("correlation", "ports"),
                 "ensemble": ("correlation", "ports"),
                 "coherent": ("ports",)}

_REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One entry of the config schema: a key of a JSON object; its type,
    float (finite), int, complex (a number or [re, im]), str, list, dict
    or Transmittance (an object descriptor, see OBJECT_KINDS); a (test,
    message) rule; a default (none: the key must be given); the fields
    of a dict, or of each item of a list; and, at the top level, the
    ScenarioConfig attribute it fills (default: the key), or the
    attributes a block's values spread over."""

    key: str
    type: type
    rule: tuple = None
    default: object = _REQUIRED
    fields: tuple = ()
    attr: object = None


_POSITIVE = (lambda v: v > 0, "must be positive")
_NONZERO = (lambda v: v != 0, "must be nonzero")
_NONEMPTY = (lambda v: len(v) > 0, "must be non-empty")
_PATH = (lambda v: len(v) > 0 and "\0" not in v,
         "must be a non-empty path with no NUL character")


def _one_of(choices):
    return (lambda v: v in choices, f"must be one of {tuple(choices)}")


def _between(lo, hi):
    return (lambda v: lo <= v <= hi, f"must be between {lo} and {hi}")


#: an object kind: the constructor its fields' values are passed to, in
#: order, and the field a constructor InvalidArgumentError is reported on
ObjectKind = namedtuple("ObjectKind", "build fields reported")


OBJECT_KINDS = {
    "double_slit": ObjectKind(
        double_slit, (Field("b", float), Field("d", float)), "b"),
    "phase_holes": ObjectKind(
        phase_holes, (Field("hole_width", float), Field("separation", float),
                      Field("phase_shift", float)), "hole_width"),
    # inline pixels, or a PGM path read at run time next to the config
    # file; so pitch is checked here, before the raster can be built
    "raster": ObjectKind(
        raster_to_transmittance, (Field("pixels", list, default=None),
                                  Field("pitch", float, _POSITIVE),
                                  Field("path", str, _PATH, default=None)),
        "pixels"),
    "uniform": ObjectKind(uniform, (Field("value", complex, default=1.0),),
                          "value"),
}
_KIND = Field("kind", str, _one_of(OBJECT_KINDS))


#: the decimal exponents X of the values _csv formats in numpy: those
#: "%.17g" writes with two digits (1e-99 <= |x| < 1e100)
_CSV_EXPONENTS = (-99, 99)
#: the superset row of one value, six 8-byte words: sign, "0.000", d0,
#: '.'; four words of four digits, each followed by its '.'; 'e', the
#: exponent's sign and two digits, the separator and three zeros
_CSV_ROW = 48
#: values _csv lays out at once: a block's arrays stay in cache, and off
#: the fresh pages that whole-file arrays fault in (those wrote the
#: builtins' CSV files 1.5x slower)
_CSV_BLOCK = 4096


@functools.cache
def _csv_tables():
    """_csv's tables. By i = X - _CSV_EXPONENTS[0]: 10**(16 - X) as the
    double-double hi + lo, from exact integers, and hi's Dekker halves;
    and layout[i], such that template row layout[i] + k serves a value
    of exponent X with k significant digits: its fixed bytes, and 255 on
    each digit and '.' it keeps (the last row marks a value Python
    formats). The words ANDed onto a template row: by 4-digit chunk c,
    its digits and points; by 10000 + d, the first word for digit d; by
    10010 + i, the last word, X's exponent and the separator. By (j, c):
    the digits up to the last nonzero one when c is the number's chunk j
    (j = 0 .. 3 after d0), or 0 when c is 0.
    """
    lo_exp, hi_exp = _CSV_EXPONENTS
    hi, lo = [], []
    for s in range(16 - lo_exp, 15 - hi_exp, -1):
        if s >= 0:
            p = 10 ** s
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:
            q = 10 ** -s
            hi.append(1 / q)  # int / int rounds correctly
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * q) / (den * q))
    hi, lo = np.array(hi), np.array(lo)
    split = 134217729.0 * hi  # 2**27 + 1
    hi_hi = split - (split - hi)

    # layouts c = -5 (any exponent; the exponent is a word) and -4 .. 16
    c = np.arange(-5, 17)[:, None]
    k = np.arange(1, 18)
    template = np.zeros((c.size * 17 + 1, _CSV_ROW), np.uint8)
    rows = template[:-1].reshape(c.size, 17, _CSV_ROW)
    rows[:, :, 1:6] = (np.frombuffer(b"0.000", np.uint8)
                       * ((c > -5) & (c < 0) & (np.arange(5) < 1 - c))
                       )[:, None, :]
    # digit j is byte 6 + 2j, a point after it byte 7 + 2j; a fixed-point
    # value keeps its integer digits, trailing zeros too
    kept = np.where(c >= 0, np.maximum(k, c + 1), k)
    rows[:, :, 6:40:2] = np.arange(17) < kept[..., None]
    rows[:, :, 6:40:2] *= 255
    # the point follows digit d0, or digit X in fixed point
    point = np.maximum(c, 0)
    ci, ki = np.nonzero(((c >= 0) | (c < -4)) & (k > point + 1))
    rows[ci, ki, 7 + 2 * point[ci, 0]] = 255
    rows[:, :, 40:44] = 255
    template[:, 44] = ord(",")
    template[-1, 1] = 1
    x = np.arange(lo_exp, hi_exp + 1)
    fixed = (x >= -4) & (x < 17)
    layout = 17 * np.where(fixed, x + 5, 0) - 1

    words = np.zeros((10010 + x.size, 8), np.uint8)
    words[:10010] = 255
    words[:10000, 1::2] = ord(".")
    chunk = words[:10000].reshape(10, 10, 10, 10, 8)
    significant = np.zeros((10, 10, 10, 10), np.uint8)
    for place in range(4):
        digit = np.arange(48, 58, dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - place))
        chunk[..., 2 * place] = digit
        np.copyto(significant, place + 1, where=digit > 48)
    words[10000:10010, 6] = np.arange(48, 58)
    words[10000:10010, 7] = ord(".")
    # 'e', then '+' (43) or '-' (45), then two digits; and the separator
    words[10010:, :4] = np.stack([np.full(x.size, ord("e")), 44 - np.sign(x),
                                  48 + abs(x) // 10, 48 + abs(x) % 10],
                                 axis=1) * ~fixed[:, None]
    words[10010:, 4] = 255
    significant = significant.ravel()
    last = (significant > 0) * (np.arange(1, 17, 4, dtype=np.uint8)[:, None]
                                + significant)
    return (hi, lo, hi_hi, hi - hi_hi, layout, template.view(np.uint64),
            words.view(np.uint64)[:, 0], last)


def _csv(header, *columns):
    """The bytes np.savetxt(fmt="%.17g", delimiter=",", comments="")
    writes for these columns under this header: each value is exactly
    Python's "%.17g".

    The 17-digit significand n of a value x of exponent X is x * 10**(16
    - X) rounded once, from Dekker's exact product with the double-double
    power. Each value fills a superset row (_CSV_ROW): the template row
    of X's layout and n's significant digits, ANDed with the words of
    n's digits and X's exponent; the bytes it drops are zero, and are
    deleted. Python's "%.17g" itself writes, into the same places, every
    value this cannot round with certainty: nan, +-inf, exponents
    outside _CSV_EXPONENTS (subnormals among them), n within 1e-9 of a
    rounding tie, and n that rounds to a power of ten (1.0 and 0.001).
    Blocks of _CSV_BLOCK values are laid out at a time.
    """
    # the digits are those of float64 arithmetic
    table = np.column_stack(columns).astype(float, copy=False)
    rows, cols = table.shape
    step = max(1, _CSV_BLOCK // cols)
    blocks, missing = [], []
    for start in range(0, rows, step):
        block, values = _csv_block(table[start:start + step])
        blocks.append(block)
        missing += values
    body = b"".join(blocks)
    if missing:
        parts = body.split(b"\1")
        body = b"".join([q for pair in zip(parts, missing) for q in pair]
                        + parts[-1:])
    return (header + "\n").encode("ascii") + body


def _csv_block(table):
    """_csv's bytes for these rows, a 1 in place of each value Python
    formats, and the bytes of those values."""
    hi, lo, hi_hi, hi_lo, layout, template, words, last = _csv_tables()
    value = table.ravel()
    a = np.abs(value)
    nonzero = np.isfinite(a) & (a > 0)
    x = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.intp)
    ok = nonzero & (x >= _CSV_EXPONENTS[0]) & (x <= _CSV_EXPONENTS[1])
    i = np.where(ok, x - _CSV_EXPONENTS[0], -_CSV_EXPONENTS[0])
    a = np.where(ok, a, 1.0)
    # a * hi = p + e exactly (Dekker's TwoProduct); r = e + a * lo
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    b_hi, b_lo = np.take(hi_hi, i), np.take(hi_lo, i)
    p = a * np.take(hi, i)
    r = (((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
         + a * np.take(lo, i))
    whole = np.floor(r)
    r -= whole
    # log10 misses X by at most one, so p < 1e18 casts; n strictly inside
    # (1e16, 1e17) has X as its exponent
    n = p.astype(np.int64) + whole.astype(np.int64) + (r > 0.5)
    ok &= (n > 10 ** 16) & (n < 10 ** 17) & (np.abs(r - 0.5) > 1e-9)
    n = np.where(ok, n, 0)
    # zero takes X = 0's row (i's default) of one digit: "0"
    ok |= value == 0

    # the index of each word of a row: d0's, n's four 4-digit chunks', and
    # X's exponent
    chunks = np.empty((value.size, 6), np.intp)
    top = (n // 10 ** 8).astype(np.uint32)
    low = (n - top * np.int64(10 ** 8)).astype(np.uint32)
    d0 = top // 10 ** 8
    mid = top - d0 * 10 ** 8
    chunks[:, 0] = d0 + 10000
    chunks[:, 1] = mid // 10 ** 4
    chunks[:, 2] = mid - (mid // 10 ** 4) * 10 ** 4
    chunks[:, 3] = low // 10 ** 4
    chunks[:, 4] = low - (low // 10 ** 4) * 10 ** 4
    chunks[:, 5] = i + 10010
    k = np.maximum(np.maximum(np.take(last[0], chunks[:, 1]),
                              np.take(last[1], chunks[:, 2])),
                   np.maximum(np.take(last[2], chunks[:, 3]),
                              np.take(last[3], chunks[:, 4])))
    out = np.take(template, np.where(ok, np.take(layout, i)
                                     + np.maximum(k, 1), len(template) - 1),
                  axis=0)
    out &= np.take(words, chunks)
    out = out.view(np.uint8)
    out[:, 0] = np.where(ok & np.signbit(value), ord("-"), 0)
    out.reshape(table.shape + (_CSV_ROW,))[:, -1, 44] = ord("\n")
    return (out.tobytes().translate(None, b"\0"),
            [b"%.17g" % v for v in value[~ok].tolist()])


def _correlation_csv(result):
    c = result.correlation
    return _csv("x_m,re,im,abs2", result.grid.coordinates(), c.real, c.imag,
                c.real * c.real + c.imag * c.imag)


def _ports_csv(result):
    return _csv("x_m,i_plus,i_minus,diff,sum", result.grid.coordinates(),
                result.i_plus, result.i_minus, result.diff,
                result.i_plus + result.i_minus)


def _image_pgm(result):
    if hasattr(result, "correlation"):
        data = np.abs(result.correlation)
    elif hasattr(result, "i_plus"):
        data = result.i_plus
    else:
        data = result
    data = np.asarray(data, dtype=float)
    lo, hi = data.min(), data.max()
    if hi == lo:
        scaled = np.zeros(data.shape)
    else:
        scaled = (data - lo) / (hi - lo) * 255.0
    img = np.rint(scaled).astype(np.uint8)
    img = img[None, :] if img.ndim == 1 else img[::-1, :]
    rows, cols = img.shape
    return f"P5\n{cols} {rows}\n255\n".encode("ascii") + img.tobytes()


#: an output kind: the results it can write (it writes the first one a
#: run makes) and the function giving the file's bytes for one
OutputKind = namedtuple("OutputKind", "reads render")


OUTPUT_KINDS = {
    "correlation_csv": OutputKind(("correlation",), _correlation_csv),
    "ports_csv": OutputKind(("ports",), _ports_csv),
    "image_pgm": OutputKind(("image", "correlation", "ports"), _image_pgm),
}

FIELDS = (
    Field("name", str, _NONEMPTY),
    Field("mode", str, _one_of(_MODE_RESULTS)),
    Field("wavelength", float, _POSITIVE),
    Field("z_o1", float, _POSITIVE),
    Field("z_o2", float, _POSITIVE),
    Field("reference_segments", list, _NONEMPTY, fields=(
        Field("length", float, _POSITIVE),
        Field("index", float, _NONZERO))),
    Field("object", Transmittance, attr="object_descriptor"),
    Field("grid", dict, fields=(
        Field("half_width", float, _POSITIVE),
        # n points for a 1D object; a raster's n x n image is capped too
        Field("n_samples", int, _between(2, MAX_NODES)),
        Field("center", float, default=0.0)),
        attr=("grid_half_width", "grid_n_samples", "grid_center")),
    Field("source", dict, fields=(
        Field("intensity", float, _POSITIVE),
        Field("width", float, _POSITIVE)),
        attr=("source_intensity", "source_width")),
    Field("ensemble", dict, default=None, fields=(
        Field("n_realizations", int, _between(1, MAX_REALIZATIONS)),
        Field("seed", int, _between(0, 2 ** 64 - 1))),
        attr="ensemble_settings"),
    Field("coherent", dict, default=None, fields=(
        Field("source", str, _one_of(("plane_wave", "pinhole")),
              default="plane_wave"),
        Field("pinhole_width", float, _POSITIVE, default=None)),
        attr="coherent_settings"),
    Field("outputs", list, fields=(
        Field("kind", str, _one_of(OUTPUT_KINDS)),
        Field("path", str, _PATH))),
)


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
        """The JSON document of this config, in FIELDS order; a value of
        None (a block or optional field not in use) is left out."""
        doc = {}
        for field in FIELDS:
            if isinstance(field.attr, tuple):
                value = tuple(getattr(self, a) for a in field.attr)
            else:
                value = getattr(self, field.attr or field.key)
            if value is not None:
                doc[field.key] = _dump(field, value)
        return doc


def _dump(field, value):
    """The JSON form of a value that _read returned for field."""
    def block(values):
        return {f.key: v for f, v in zip(field.fields, values)
                if v is not None}
    if not field.fields:
        return dict(value) if field.type is Transmittance else value
    return [block(v) for v in value] if field.type is list else block(value)


def _finite(value, path):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioValidationError(path, "must be a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ScenarioValidationError(path, "must be finite")
    return float(value)


def _typed(value, type_, path):
    """value as the schema type names it: a float, an int, a complex
    number, or the checked copy of an object descriptor."""
    if type_ is float:
        return _finite(value, path)
    if type_ is complex:
        if not isinstance(value, list):
            return _finite(value, path)
        if len(value) != 2:
            raise ScenarioValidationError(path,
                                          "complex value must be [re, im]")
        return complex(*(_finite(part, path) for part in value))
    if type_ is Transmittance:
        kind = _read(_KIND, _typed(value, dict, path), path + ".kind")
        _block((_KIND,) + OBJECT_KINDS[kind].fields, value, path)
        return dict(value)
    if not isinstance(value, type_) or isinstance(value, bool):
        raise ScenarioValidationError(path,
                                      f"must be of type {type_.__name__}")
    return value


def _read(field, d, path):
    """The checked value of field in the JSON object d, or its default;
    a block reads as the tuple of its fields' values, a list of blocks
    as a tuple of those."""
    if field.key not in d:
        if field.default is _REQUIRED:
            raise ScenarioValidationError(path, "missing field")
        return field.default
    value = _typed(d[field.key], field.type, path)
    if field.rule is not None and not field.rule[0](value):
        raise ScenarioValidationError(path, field.rule[1])
    if not field.fields:
        return value
    if field.type is list:
        return tuple(_block(field.fields, item, f"{path}[{i}]")
                     for i, item in enumerate(value))
    return _block(field.fields, value, path)


def _block(fields, d, path):
    """The checked values of the fields of JSON object d, in table order;
    a key that no field names is rejected."""
    if not isinstance(d, dict):
        raise ScenarioValidationError(path, "must be an object")
    prefix = path + "." if path else ""
    keys = [f.key for f in fields]
    for key in d:
        if key not in keys:
            raise ScenarioValidationError(prefix + key, "unknown field")
    return tuple(_read(f, d, prefix + f.key) for f in fields)


def _source(kind, mode, is_2d):
    """The result an output kind writes in a run of this mode on a 1D or
    a 2D object, or None when the run makes none it can write."""
    made = ("image",) if mode == "analytic" and is_2d \
        else _MODE_RESULTS[mode]
    return next((r for r in OUTPUT_KINDS[kind].reads if r in made), None)


def config_from_dict(raw):
    """Validate a parsed JSON document into a ScenarioConfig.

    Every field is checked against FIELDS, then the rules that tie
    fields together. Raises ScenarioValidationError carrying the
    offending field path.
    """
    if not isinstance(raw, dict):
        raise ScenarioValidationError("<root>", "config must be a JSON object")
    if raw.get("mode") == "coherent":
        # every coherent field has a default, so the block may be left out
        raw = {"coherent": {}, **raw}
    values = {}
    for field, value in zip(FIELDS, _block(FIELDS, raw, "")):
        if isinstance(field.attr, tuple):
            values.update(zip(field.attr, value))
        else:
            values[field.attr or field.key] = value
    mode, obj = values["mode"], values["object_descriptor"]
    is_2d = obj["kind"] == "raster"

    # only the analytic engine has a 2D form
    if is_2d and mode != "analytic":
        raise ScenarioValidationError(
            "object.kind", f"a raster runs in analytic mode only, not {mode}")
    if is_2d and ("path" in obj) == ("pixels" in obj):
        raise ScenarioValidationError(
            "object.path", "raster needs exactly one of path or pixels")
    _build_object(obj)
    n = values["grid_n_samples"]
    # fields that each pass their own rule can still overflow together
    _built("wavelength", OpticsContext, values["wavelength"])
    _built("grid.half_width", make_grid, values["grid_center"],
           values["grid_half_width"], n)
    if is_2d and n * n > MAX_NODES:
        raise ScenarioValidationError(
            "grid.n_samples", f"detector image of {n}**2 points exceeds "
            f"the cap of {MAX_NODES}")
    # the ensemble and coherent blocks belong to the mode of that name
    for block in ("ensemble", "coherent"):
        if (block in raw) != (mode == block):
            raise ScenarioValidationError(
                block, "missing field" if mode == block
                else f"only applies to {block} mode")
    if mode == "coherent":
        source, pinhole_width = values["coherent_settings"]
        if (source == "pinhole") != (pinhole_width is not None):
            raise ScenarioValidationError(
                "coherent.pinhole_width",
                "is given for a pinhole source, and only for one")
    for i, (kind, _) in enumerate(values["outputs"]):
        if _source(kind, mode, is_2d) is None:
            raise ScenarioValidationError(
                f"outputs[{i}].kind",
                f"{kind} is not available for this mode/object")
    return ScenarioConfig(**values)


def _build_object(descriptor, base_dir=None):
    """The Transmittance a checked object descriptor names.

    A raster given by path is read from base_dir; without base_dir it is
    not built and None is returned. A constructor's InvalidArgumentError
    is reported on the kind's field.
    """
    kind = OBJECT_KINDS[descriptor["kind"]]
    args = {f.key: _read(f, descriptor, "object." + f.key)
            for f in kind.fields}
    path = args.pop("path", None)
    if path is not None:
        if base_dir is None:
            return None
        try:
            args["pixels"] = read_pgm(os.path.join(base_dir, path))
        except (OSError, InvalidArgumentError) as exc:
            raise ScenarioValidationError("object.path", str(exc)) from exc
    return _built("object." + kind.reported, kind.build, *args.values())


def _built(path, build, *args):
    """build(*args), its InvalidArgumentError reported on field path."""
    try:
        return build(*args)
    except InvalidArgumentError as exc:
        raise ScenarioValidationError(path, str(exc)) from exc


@dataclass(frozen=True)
class OutputBundle:
    """What a scenario run produced: files plus the resolved ledger."""

    files: tuple  # of (path, sha256 hex digest)
    optical_path: float
    diffraction_length: float
    z_eff: float
    z_o2_img: float


def export(result, kind, path):
    """Write one result file; returns the path written.

    correlation_csv: columns x_m, re, im, abs2 (abs2 = re^2 + im^2).
    ports_csv: columns x_m, i_plus, i_minus, diff, sum.
    image_pgm: binary P5, min-max normalized to 0..255; 2D images are
    written top row first (descending y); constant data maps to zeros.
    Each CSV number is exactly Python's "%.17g" (17 significant digits,
    trailing zeros dropped): numpy writes most, and Python itself nan,
    +-inf, three-digit exponents, rounding near-ties and values that
    round to a power of ten (see _csv).
    """
    _write(result, kind, path)
    return path


def _write(result, kind, path):
    """export's body; returns the bytes it wrote."""
    if kind not in OUTPUT_KINDS:
        raise ScenarioValidationError("outputs.kind", f"unknown kind {kind}")
    data = OUTPUT_KINDS[kind].render(result)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def run_scenario(config, out_dir=None, echo=print):
    """Execute a scenario (path to a JSON file, or a ScenarioConfig).

    Writes the declared outputs (relative paths land in out_dir, default
    the current directory; two that resolve to one file are rejected
    before any is written), prints the resolved ledger summary, and
    returns an OutputBundle with sha256 checksums. Non-fatal notices
    are WaveCorrWarning subclasses raised through `warnings`.
    """
    base_dir = os.getcwd()
    if not isinstance(config, ScenarioConfig):
        config_path = os.fspath(config)
        base_dir = os.path.dirname(os.path.abspath(config_path))
        with open(config_path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigParseError(
                    f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
            except (UnicodeDecodeError, RecursionError) as exc:
                raise ConfigParseError(str(exc)) from exc
        config = config_from_dict(raw)
    # join keeps an absolute output path as it is
    paths = [os.path.join(out_dir or os.getcwd(), path)
             for _, path in config.outputs]
    targets = [os.path.realpath(path) for path in paths]
    for i, target in enumerate(targets):
        if target in targets[:i]:
            raise ScenarioValidationError(f"outputs[{i}].path",
                                          "written by an earlier output")

    segments = tuple(MediumSegment(l, n)
                     for l, n in config.reference_segments)
    obj = _build_object(config.object_descriptor, base_dir)
    try:
        spec = InterferometerSpec(
            ctx=OpticsContext(config.wavelength), z_o1=config.z_o1,
            z_o2=config.z_o2, reference_segments=segments, object=obj,
            source_width=config.source_width,
            source_intensity=config.source_intensity)
    except UnequalPathError as exc:
        raise ScenarioValidationError("z_o1", str(exc)) from exc
    led, z_eff = spec.reference_ledger, spec.z_eff
    # the detector distance of the imaging position; negative when Z < Zbar
    z_o2_img = led.optical_path - led.diffraction_length

    echo(f"scenario {config.name} [{config.mode}]")
    echo(f"Z = {led.optical_path * 100:.4g} cm")
    echo(f"Zbar = {led.diffraction_length * 100:.4g} cm")
    echo(f"z_o2_img = {z_o2_img * 100:.4g} cm")
    if z_eff == 0:
        echo("Z_eff = 0 cm (imaging point)")
    else:
        echo(f"Z_eff = {z_eff * 100:.4g} cm")

    grid = make_grid(config.grid_center, config.grid_half_width,
                     config.grid_n_samples)
    is_2d = spec.object.ndim == 2
    sources = [_source(kind, config.mode, is_2d) for kind, _ in config.outputs]
    results = {}
    if config.mode == "analytic" and is_2d:
        results["image"] = correlation_analytic_2d(spec, grid)
    elif config.mode == "analytic":
        corr = results["correlation"] = correlation_analytic(spec, grid)
        if "ports" in sources:
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
                                 prefactor=None)
        results["correlation"] = corr
        results["ports"] = detector_ports(
            corr, est.intensity_o + est.intensity_r)
    else:
        results["ports"] = run_coherent(spec, grid,
                                        config.coherent_settings[1])

    files = []
    for (kind, _), path, source in zip(config.outputs, paths, sources):
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        data = _write(results[source], kind, path)
        digest = hashlib.sha256(data).hexdigest()
        files.append((path, digest))
        echo(f"wrote {path} sha256={digest}")

    return OutputBundle(
        files=tuple(files),
        optical_path=led.optical_path,
        diffraction_length=led.diffraction_length,
        z_eff=z_eff,
        z_o2_img=z_o2_img,
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


def _fig4(label, z_o1):
    name = f"fig4{label}"
    return _base(name, "analytic", z_o1, 2.0e-3, 4096, dict(_SLIT),
                 [{"kind": "correlation_csv",
                   "path": f"{name}_correlation.csv"}])


#: name -> builder of the named reproduction, in listing order; each
#: builds and validates its own config only
_BUILTINS = {
    "fig2_amplitude": lambda: _base(
        "fig2_amplitude", "analytic", _ZBAR_REF, 1.2e-3, 512,
        {"kind": "raster", "pixels": _glyph_pixels(), "pitch": 60e-6},
        [{"kind": "image_pgm", "path": "fig2_amplitude_image.pgm"}]),
    "fig2_phase": lambda: _base(
        "fig2_phase", "analytic", _ZBAR_REF, 1.0e-3, 2048,
        {"kind": "phase_holes", "hole_width": 200e-6,
         "separation": 500e-6, "phase_shift": math.pi},
        [{"kind": "correlation_csv", "path": "fig2_phase_correlation.csv"},
         {"kind": "ports_csv", "path": "fig2_phase_ports.csv"}]),
    "fig3_incoherent": lambda: _base(
        "fig3_incoherent", "ensemble", _ZBAR_REF, 0.5e-3, 1024, dict(_SLIT),
        [{"kind": "correlation_csv",
          "path": "fig3_incoherent_correlation.csv"},
         {"kind": "ports_csv", "path": "fig3_incoherent_ports.csv"}],
        ensemble={"n_realizations": 2000, "seed": 20260816}),
    "fig3_coherent": lambda: _base(
        "fig3_coherent", "coherent", _ZBAR_REF, 4.0e-3, 4096, dict(_SLIT),
        [{"kind": "ports_csv", "path": "fig3_coherent_ports.csv"}],
        coherent={"source": "pinhole", "pinhole_width": 50e-6}),
    "fig4a": lambda: _fig4("a", 0.310),
    "fig4b": lambda: _fig4("b", _ZBAR_REF),
    "fig4c": lambda: _fig4("c", 0.242),
    "fig4d": lambda: _fig4("d", 0.200),
    "fig4e": lambda: _fig4("e", 0.106),
}


def builtin_scenarios():
    """The nine named reproductions of the reference experiments."""
    return [build() for build in _BUILTINS.values()]
