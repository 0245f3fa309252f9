"""Scenario configs, builtin catalog, exporters, and end-to-end runs."""

import copy
import csv
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil

import numpy as np
import pytest

from wavecorr import (CorrelationResult, PortIntensities,
                      builtin_scenarios, config_from_dict, export, make_grid,
                      read_pgm, run_scenario)
from wavecorr.errors import InvalidArgumentError, ScenarioValidationError
from wavecorr.scenario import (_CSV_EXPONENTS, FIELDS, MAX_REALIZATIONS,
                               OBJECT_KINDS, Transmittance, _csv,
                               _csv_block)

_spec = importlib.util.spec_from_file_location(
    "builtin_manifest", os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "builtin_manifest.py"))
builtin_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(builtin_manifest)

BUILTIN_NAMES = ["fig2_amplitude", "fig2_phase", "fig3_incoherent",
                 "fig3_coherent", "fig4a", "fig4b", "fig4c", "fig4d", "fig4e"]


def base_dict(**over):
    d = {
        "name": "unit",
        "mode": "analytic",
        "wavelength": 589.3e-9,
        "z_o1": 0.183 + 0.155 / 1.5163,
        "z_o2": (0.183 + 1.5163 * 0.155) - (0.183 + 0.155 / 1.5163),
        "reference_segments": [{"length": 0.183, "index": 1.0},
                               {"length": 0.155, "index": 1.5163}],
        "object": {"kind": "double_slit", "b": 125e-6, "d": 300e-6},
        "grid": {"half_width": 0.5e-3, "n_samples": 128},
        "source": {"intensity": 1.0, "width": 0.01},
        "outputs": [{"kind": "correlation_csv", "path": "corr.csv"}],
    }
    d.update(over)
    return d


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


# ---------------------------------------------------------------- builtins

def test_builtin_catalog():
    configs = builtin_scenarios()
    assert [c.name for c in configs] == BUILTIN_NAMES
    by_name = {c.name: c for c in configs}

    sweep = by_name["fig4c"]
    assert sweep.mode == "analytic"
    assert sweep.z_o1 == pytest.approx(0.242)
    assert sweep.grid_half_width == pytest.approx(2e-3)
    assert sweep.grid_n_samples == 4096
    assert [k for k, _ in sweep.outputs] == ["correlation_csv"]

    coh = by_name["fig3_coherent"]
    assert coh.mode == "coherent"
    assert coh.coherent_settings == ("pinhole", 50e-6)

    ens = by_name["fig3_incoherent"]
    assert ens.mode == "ensemble"
    assert ens.ensemble_settings == (2000, 20260816)

    mask = by_name["fig2_amplitude"]
    assert mask.object_descriptor["kind"] == "raster"
    px = np.array(mask.object_descriptor["pixels"])
    assert px.shape == (12, 26)
    assert set(np.unique(px)) == {0, 255}

    holes = by_name["fig2_phase"]
    assert holes.object_descriptor["phase_shift"] == pytest.approx(math.pi)


def test_builtin_sweep_covers_both_signs():
    by_name = {c.name: c for c in builtin_scenarios()}
    z_o1s = [by_name[f"fig4{s}"].z_o1 for s in "abcde"]
    assert z_o1s == sorted(z_o1s, reverse=True)
    zbar = 0.183 + 0.155 / 1.5163
    assert z_o1s[0] > zbar            # forward defocus
    assert z_o1s[1] == zbar           # imaging point
    assert all(z < zbar for z in z_o1s[2:])  # phase-reversed side


def test_builtins_round_trip_through_json():
    for cfg in builtin_scenarios():
        back = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg


# -------------------------------------------------------------- validation

REJECTIONS = [
    (base_dict(extra=1), "extra"),
    (base_dict(mode="quantum"), "mode"),
    (base_dict(wavelength=True), "wavelength"),
    (base_dict(wavelength=-1.0), "wavelength"),
    (base_dict(reference_segments=[]), "reference_segments"),
    (base_dict(reference_segments=[{"length": 0.1, "index": 0.0}]),
     "reference_segments[0].index"),
    (base_dict(reference_segments=[{"length": 0.1, "index": 1.0, "area": 2}]),
     "reference_segments[0].area"),
    (base_dict(object={"kind": "prism"}), "object.kind"),
    (base_dict(object={"kind": "double_slit", "b": 3e-4, "d": 3e-4}),
     "object.b"),
    (base_dict(object={"kind": "double_slit", "b": 1e-4}), "object.d"),
    (base_dict(object={"kind": "raster", "pitch": 1e-5, "path": "a.pgm",
                       "pixels": [[1]]}), "object.path"),
    (base_dict(object={"kind": "raster", "pitch": 1e-5}), "object.path"),
    (base_dict(object={"kind": "uniform", "value": [1.0]}), "object.value"),
    (base_dict(grid={"half_width": 1e-3, "n_samples": 1}), "grid.n_samples"),
    (base_dict(grid={"half_width": 1e-3, "n_samples": 64, "skew": 1}),
     "grid.skew"),
    (base_dict(source={"intensity": 1.0, "width": -0.01}), "source.width"),
    (base_dict(ensemble={"n_realizations": 10, "seed": 1}), "ensemble"),
    (base_dict(mode="ensemble"), "ensemble"),
    (base_dict(mode="ensemble", ensemble={"n_realizations": 0, "seed": 1}),
     "ensemble.n_realizations"),
    (base_dict(mode="ensemble", ensemble={"n_realizations": 4, "seed": -1}),
     "ensemble.seed"),
    (base_dict(coherent={"source": "plane_wave"}), "coherent"),
    (base_dict(mode="coherent", coherent={"source": "pinhole"},
               outputs=[{"kind": "ports_csv", "path": "p.csv"}]),
     "coherent.pinhole_width"),
    (base_dict(mode="coherent",
               coherent={"source": "plane_wave", "pinhole_width": 1e-5},
               outputs=[{"kind": "ports_csv", "path": "p.csv"}]),
     "coherent.pinhole_width"),
    (base_dict(mode="coherent"), "outputs[0].kind"),
    (base_dict(object={"kind": "raster", "pitch": 6e-5, "pixels": [[255]]}),
     "outputs[0].kind"),
    (base_dict(outputs=[{"kind": "picture", "path": "x"}]), "outputs[0].kind"),
    (base_dict(outputs=[{"kind": "correlation_csv", "path": ""}]),
     "outputs[0].path"),
    ("not a dict", "<root>"),
    # non-finite numbers (JSON parsers accept NaN and Infinity) and
    # non-numeric parts of a complex value
    (base_dict(wavelength=math.inf), "wavelength"),
    (base_dict(wavelength=math.nan), "wavelength"),
    (base_dict(z_o1=10 ** 400), "z_o1"),
    (base_dict(reference_segments=[{"length": 0.1, "index": 1.0},
                                   {"length": 0.1, "index": math.nan}]),
     "reference_segments[1].index"),
    (base_dict(object={"kind": "phase_holes", "hole_width": 2e-4,
                       "separation": 5e-4, "phase_shift": math.nan}),
     "object.phase_shift"),
    (base_dict(object={"kind": "double_slit", "b": 1e-4, "d": math.inf}),
     "object.d"),
    (base_dict(object={"kind": "uniform", "value": -math.inf}),
     "object.value"),
    (base_dict(object={"kind": "uniform", "value": [math.nan, 0.0]}),
     "object.value"),
    (base_dict(object={"kind": "uniform", "value": ["a", "b"]}),
     "object.value"),
    (base_dict(grid={"half_width": 1e-3, "n_samples": 64,
                     "center": math.nan}), "grid.center"),
    (base_dict(grid={"half_width": 1e-3, "n_samples": 64,
                     "center": math.inf}), "grid.center"),
    (base_dict(source={"intensity": math.inf, "width": 0.01}),
     "source.intensity"),
    # numeric strings are not numbers; detector arrays beyond the node cap
    (base_dict(object={"kind": "raster", "pitch": 6e-5,
                       "pixels": [["0", "255"]]}), "object.pixels"),
    (base_dict(grid={"half_width": 1e-3, "n_samples": 2 ** 21 + 1}),
     "grid.n_samples"),
    (base_dict(object={"kind": "raster", "pitch": 6e-5, "pixels": [[255]]},
               grid={"half_width": 1e-3, "n_samples": 1449}),
     "grid.n_samples"),
    # more realizations than the ensemble cap
    (base_dict(mode="ensemble",
               ensemble={"n_realizations": 2 ** 20 + 1, "seed": 1}),
     "ensemble.n_realizations"),
    # a coherent source of no known kind; a uniform value of modulus
    # above 1
    (base_dict(mode="coherent", coherent={"source": "laser"},
               outputs=[{"kind": "ports_csv", "path": "p.csv"}]),
     "coherent.source"),
    (base_dict(object={"kind": "uniform", "value": 2}), "object.value"),
    # a NUL character, which no file system path may hold
    (base_dict(outputs=[{"kind": "correlation_csv", "path": "a\0b.csv"}]),
     "outputs[0].path"),
    (base_dict(object={"kind": "raster", "pitch": 6e-5, "path": "m\0.pgm"},
               outputs=[{"kind": "image_pgm", "path": "i.pgm"}]),
     "object.path"),
    # a raster outside analytic mode, with outputs that mode can write
    (base_dict(mode="ensemble", ensemble={"n_realizations": 4, "seed": 1},
               object={"kind": "raster", "pitch": 6e-5,
                       "pixels": [[255, 0, 255]]}),
     "object.kind"),
    (base_dict(mode="coherent",
               object={"kind": "raster", "pitch": 6e-5,
                       "pixels": [[255, 0, 255]]},
               outputs=[{"kind": "ports_csv", "path": "p.csv"}]),
     "object.kind"),
]


@pytest.mark.parametrize("raw,field", REJECTIONS)
def test_config_rejections_carry_field_paths(raw, field):
    with pytest.raises(ScenarioValidationError) as exc:
        config_from_dict(raw)
    assert exc.value.field == field
    assert field in str(exc.value)


def schema_leaves(fields=FIELDS, prefix=""):
    """(path, type) of each leaf of the config schema; list items at [0]."""
    for f in fields:
        path = prefix + f.key
        if f.type is Transmittance:
            yield path + ".kind", str
            for kind in OBJECT_KINDS.values():
                yield from schema_leaves(kind.fields, path + ".")
        elif f.fields:
            yield from schema_leaves(
                f.fields, path + ("[0]." if f.type is list else "."))
        else:
            yield path, f.type


# between them these hold every schema leaf: each object kind (a raster
# both inline and by path) and the ensemble and coherent blocks
IMAGE_OUT = [{"kind": "image_pgm", "path": "i.pgm"}]
SCHEMA_BASES = [
    base_dict(grid={"half_width": 0.5e-3, "n_samples": 128, "center": 0.0}),
    base_dict(object={"kind": "phase_holes", "hole_width": 2e-4,
                      "separation": 5e-4, "phase_shift": 1.0}),
    base_dict(object={"kind": "raster", "pitch": 6e-5, "pixels": [[255]]},
              outputs=IMAGE_OUT),
    base_dict(object={"kind": "raster", "pitch": 6e-5, "path": "m.pgm"},
              outputs=IMAGE_OUT),
    base_dict(object={"kind": "uniform", "value": 1.0}),
    base_dict(mode="ensemble", ensemble={"n_realizations": 4, "seed": 1}),
    base_dict(mode="coherent",
              coherent={"source": "pinhole", "pinhole_width": 5e-5},
              outputs=[{"kind": "ports_csv", "path": "p.csv"}]),
]


def _keys(path):
    return [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]


def _holds(doc, path):
    try:
        for key in _keys(path):
            doc = doc[key]
    except (KeyError, IndexError):
        return False
    return True


@pytest.mark.parametrize("path,type_", sorted(dict(schema_leaves()).items()))
def test_wrong_type_at_each_schema_leaf_names_that_leaf(path, type_):
    raw = copy.deepcopy(next(b for b in SCHEMA_BASES if _holds(b, path)))
    config_from_dict(raw)
    *parents, last = _keys(path)
    node = raw
    for key in parents:
        node = node[key]
    # a number for a string, a string for anything else
    node[last] = 1 if type_ is str else "1"
    with pytest.raises(ScenarioValidationError) as exc:
        config_from_dict(raw)
    assert exc.value.field == path


# sha256 of json.dumps(cfg.to_dict(), indent=2), the text show-builtin
# prints, for each builtin
BUILTIN_DOCUMENT_SHA256 = {
    "fig2_amplitude":
        "3e8dc81fad1465c32a0d4f1b634896fa5f360173e706828f8cd78cba7ef94d27",
    "fig2_phase":
        "93b93bbccdb2df89a643bb0a17b4baa4b0c28268af259ade43de93f07f12b508",
    "fig3_incoherent":
        "6cb5187469e182a7af420d95095b8f3ea99e17981c1fa41d3038703da43805e3",
    "fig3_coherent":
        "36995f17044cec8b8325a59c3a87b356ede43b926aa885d078a51c234d2040ca",
    "fig4a":
        "5dba01f6d958ef4daca44650f50a86ff0515707465b7f953cc23bb38f14ef904",
    "fig4b":
        "818d13fc119e41caaca0e2364dc620acb47fb3eaa2872594115cd6e5e309dd21",
    "fig4c":
        "c6f0b23bec16390a96848c6eb5658f5125f4b5beab4517ccd1b3834aef3331c3",
    "fig4d":
        "302e40b5d40d3249078db373987f05fbb3a4ae7249fc15b02b21b48834034276",
    "fig4e":
        "efcfa6fbe87774a138e8e73b6f14520a1d29637811d2b905ae1905c5cb94dadc",
}


def test_builtin_documents_are_pinned():
    got = {c.name: hashlib.sha256(
        json.dumps(c.to_dict(), indent=2).encode()).hexdigest()
        for c in builtin_scenarios()}
    assert got == BUILTIN_DOCUMENT_SHA256


def test_grid_at_the_node_cap_is_accepted():
    # 2**21 points in 1D; 1448**2 <= 2**21 < 1449**2 for a raster image
    line = base_dict(grid={"half_width": 1e-3, "n_samples": 2 ** 21})
    assert config_from_dict(line).grid_n_samples == 2 ** 21
    raster = base_dict(
        object={"kind": "raster", "pitch": 6e-5, "pixels": [[255]]},
        grid={"half_width": 1e-3, "n_samples": 1448},
        outputs=[{"kind": "image_pgm", "path": "i.pgm"}])
    assert config_from_dict(raster).grid_n_samples == 1448


def test_ensemble_at_the_realization_cap_is_accepted():
    raw = base_dict(mode="ensemble",
                    ensemble={"n_realizations": MAX_REALIZATIONS, "seed": 1})
    assert config_from_dict(raw).ensemble_settings == (MAX_REALIZATIONS, 1)


def test_coherent_block_defaults_to_plane_wave():
    cfg = config_from_dict(base_dict(
        mode="coherent", outputs=[{"kind": "ports_csv", "path": "p.csv"}]))
    assert cfg.coherent_settings == ("plane_wave", None)


def test_outputs_resolving_to_one_file_are_rejected_at_run_time(tmp_path):
    cfg = config_from_dict(base_dict(outputs=[
        {"kind": "correlation_csv", "path": "same.csv"},
        {"kind": "image_pgm", "path": "./same.csv"}]))
    with pytest.raises(ScenarioValidationError) as exc:
        run_scenario(cfg, out_dir=tmp_path, echo=lambda s: None)
    assert exc.value.field == "outputs[1].path"
    assert "written by an earlier output" in str(exc.value)
    assert not (tmp_path / "same.csv").exists()


def test_mismatched_arms_are_rejected_at_run_time(tmp_path):
    cfg = config_from_dict(base_dict(z_o1=0.1, z_o2=0.1))
    with pytest.raises(ScenarioValidationError) as exc:
        run_scenario(cfg, out_dir=tmp_path, echo=lambda s: None)
    assert exc.value.field == "z_o1"


# --------------------------------------------------------------- exporters

def test_correlation_csv_format(tmp_path):
    grid = make_grid(0.0, 2e-3, 4)
    corr = np.array([1 + 2j, -0.5 + 0.25j, 0.0, 3.5 - 1.5j])
    res = CorrelationResult(grid, corr, 0.0, 1.0)
    path = tmp_path / "c.csv"
    export(res, "correlation_csv", str(path))
    header, rows = read_csv(path)
    assert header == ["x_m", "re", "im", "abs2"]
    assert len(rows) == 4
    x = grid.coordinates()
    for i, row in enumerate(rows):
        assert row[0] == x[i]
        assert row[1] == corr[i].real
        assert row[2] == corr[i].imag
        assert row[3] == row[1] ** 2 + row[2] ** 2


def test_ports_csv_format(tmp_path):
    grid = make_grid(0.0, 1e-3, 3)
    ports = PortIntensities(grid,
                            i_plus=np.array([2.0, 3.0, 4.0]),
                            i_minus=np.array([1.0, 0.5, 0.25]),
                            diff=np.array([1.0, 2.5, 3.75]),
                            background=np.array([3.0, 3.5, 4.25]))
    path = tmp_path / "p.csv"
    export(ports, "ports_csv", str(path))
    header, rows = read_csv(path)
    assert header == ["x_m", "i_plus", "i_minus", "diff", "sum"]
    for row in rows:
        assert row[4] == row[1] + row[2]


def test_csv_bytes_are_those_of_savetxt(tmp_path):
    # the numpy writer's bytes are those of np.savetxt with the same
    # format, special values (which Python's "%.17g" writes) included
    grid = make_grid(0.0, 1e-3, 6)
    i_plus = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308])
    i_minus = np.array([1e308, -0.0, 5e-324, np.nan, 0.1, -np.inf])
    diff = np.array([-0.0, 5e-324, np.nan, 1e308, -np.inf, np.inf])
    ports = PortIntensities(grid, i_plus=i_plus, i_minus=i_minus, diff=diff,
                            background=i_plus + i_minus)
    path = tmp_path / "p.csv"
    export(ports, "ports_csv", str(path))
    want = tmp_path / "want.csv"
    np.savetxt(want, np.column_stack([grid.coordinates(), i_plus, i_minus,
                                      diff, i_plus + i_minus]),
               fmt="%.17g", delimiter=",", comments="",
               header="x_m,i_plus,i_minus,diff,sum")
    assert path.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("result, kind", [
    (CorrelationResult(make_grid(0.0, 1e-3, 4), np.ones((4, 4), complex),
                       0.0, 1.0), "correlation_csv"),
    (CorrelationResult(make_grid(0.0, 1e-3, 4), np.ones(4, complex), 0.0,
                       1.0), "ports_csv"),
    (np.ones(4, complex), "correlation_csv"),
    (PortIntensities(make_grid(0.0, 1e-3, 4), *np.ones((4, 4, 4))),
     "ports_csv"),
    (np.ones(4), "ports_csv")],
    ids=["2d-correlation-as-csv", "correlation-as-ports", "array-as-csv",
         "2d-ports-as-csv", "array-as-ports"])
def test_export_rejects_a_result_its_kind_cannot_write(tmp_path, result,
                                                        kind):
    # a 2D result would be written as rows of several n + 1 columns under
    # the 1D header, and the others raised a bare AttributeError
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidArgumentError, match=kind):
        export(result, kind, str(path))
    assert not path.exists()


def percent_csv(header, table):
    """The reference writer: every value of the table by the % operator."""
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return (header + "\n" + row * table.shape[0]
            % tuple(table.ravel().tolist())).encode("ascii")


def _powers_of_ten():
    p = np.array([float(f"1e{e}") for e in range(-323, 309)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def _window_edges(rng):
    # the decades on both sides of each end of the exponents the numpy
    # path formats, and the powers of ten and neighbours between them
    lo, hi = _CSV_EXPONENTS
    decades = np.array([lo - 1, lo, hi, hi + 1])
    v = 10.0 ** (rng.choice(decades, 40000) + rng.uniform(0, 1, 40000))
    edges = np.array([float(f"1e{e}") for e in (lo - 1, lo, lo + 1,
                                                  hi, hi + 1)])
    return np.concatenate([v, edges, np.nextafter(edges, 0),
                           np.nextafter(edges, np.inf)])


CSV_INPUTS = {
    "bit_patterns": lambda rng: rng.integers(
        0, 2 ** 64, 200000, dtype=np.uint64).view(np.float64),
    "log_uniform": lambda rng: np.ldexp(
        rng.uniform(1, 2, 200000),
        rng.integers(-1074, 1024, 200000)) * rng.choice([-1, 1], 200000),
    "powers_of_ten": lambda rng: _powers_of_ten(),
    "special": lambda rng: np.array([0.0, -0.0, np.inf, -np.inf, np.nan,
                                     -np.nan]),
    "subnormals": lambda rng: np.concatenate([
        [5e-324, -5e-324, np.nextafter(2.2250738585072014e-308, 0)],
        np.ldexp(rng.uniform(0, 1, 20000), -1022)]),
    "integers": lambda rng: np.concatenate([
        np.arange(-20000, 20000.0),
        rng.integers(-2 ** 53, 2 ** 53, 40000).astype(float),
        10.0 ** 16 + np.arange(-2000, 2000), 10.0 ** 17 + 16 * np.arange(
            -2000, 2000)]),
    # odd q / 4 near 1e15 carry 18 significant digits ending in 25 or 75:
    # exact ties at the 17th
    "dyadics": lambda rng: np.concatenate([
        rng.integers(-2 ** 40, 2 ** 40, 40000) / 2.0 ** rng.integers(
            0, 80, 40000),
        (2 * rng.integers(2 * 10 ** 15, 4 * 10 ** 15, 40000) + 1) / 4.0]),
    "window_edges": _window_edges,
}


@pytest.mark.parametrize("kind", sorted(CSV_INPUTS))
@pytest.mark.parametrize("cols", [1, 4])
def test_csv_writer_is_the_percent_operator(kind, cols):
    values = CSV_INPUTS[kind](np.random.default_rng(20261020))
    table = np.resize(values, (-(-values.size // cols), cols))
    assert _csv("h", *table.T) == percent_csv("h", table)


def test_csv_writer_formats_its_exponent_window_in_numpy():
    # away from powers of ten, Python formats no value inside the window
    # and every value outside it; exponents 9 .. 15 are left out, where
    # short fractions make many values exact decimal ties (x = odd / 8
    # near 1e15 has 18 digits, the last a 5)
    lo, hi = _CSV_EXPONENTS
    rng = np.random.default_rng(7)
    exponents = np.setdiff1d(np.arange(lo, hi + 1), np.arange(9, 16))
    inside = 10.0 ** (rng.choice(exponents, 20000)
                      + rng.uniform(0.01, 0.99, 20000))
    outside = 10.0 ** (rng.choice([lo - 2, lo - 1, hi + 1, hi + 2], 2000)
                       + rng.uniform(0.01, 0.99, 2000))
    assert _csv_block(inside[:, None])[1] == []
    assert len(_csv_block(outside[:, None])[1]) == outside.size


@pytest.fixture(scope="module")
def builtin_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("builtins")
    for config in builtin_scenarios():
        run_scenario(config, out_dir=str(out), echo=lambda s: None)
    return out


@pytest.mark.parametrize("name", [
    "fig2_phase_correlation", "fig2_phase_ports",
    "fig3_incoherent_correlation", "fig3_incoherent_ports",
    "fig3_coherent_ports", "fig4a_correlation", "fig4b_correlation",
    "fig4c_correlation", "fig4d_correlation", "fig4e_correlation"])
def test_builtin_csv_bytes_are_the_percent_operator(builtin_outputs, name):
    # 17 significant digits read back exactly
    raw = (builtin_outputs / f"{name}.csv").read_bytes()
    header = raw.split(b"\n", 1)[0].decode("ascii")
    table = np.loadtxt(builtin_outputs / f"{name}.csv", delimiter=",",
                       skiprows=1, ndmin=2)
    assert raw == percent_csv(header, table)


def test_builtin_outputs_match_their_manifest(builtin_outputs):
    # every column within 1e-12 of its peak on every 64th row (the
    # largest offset reads 1.2e-16, fig3_incoherent's sum), the image
    # within one grey level, and fig3_incoherent's sampled columns
    # within 6 standard errors of their expectation on every row: the
    # worst reads 1.99 (abs2) and 1.77 (re and the ports)
    assert builtin_manifest.check(builtin_outputs)[0] == []


def _move_csv_value(path, col, row, by):
    """Add by to one value of a builtin CSV, in place."""
    columns = builtin_manifest._columns(path)
    columns[col][row] += by
    np.savetxt(path, np.column_stack(list(columns.values())), fmt="%.17g",
               delimiter=",", header=",".join(columns), comments="")


def test_builtin_manifest_check_finds_moved_outputs(builtin_outputs,
                                                    tmp_path):
    # a pinned row 2e-12 of its peak off, an unpinned row of the sample
    # 12 standard errors off, and one pixel of the image 2 levels off
    out = shutil.copytree(builtin_outputs, tmp_path / "out")
    peak = np.abs(builtin_manifest._columns(
        out / "fig4c_correlation.csv")["re"]).max()
    _move_csv_value(out / "fig4c_correlation.csv", "re", 64, 2e-12 * peak)
    _, se = builtin_manifest.sampled_columns()[
        "fig3_incoherent_correlation.csv"]["im"]
    _move_csv_value(out / "fig3_incoherent_correlation.csv", "im", 5,
                    12 * se[5])
    image = bytearray((out / "fig2_amplitude_image.pgm").read_bytes())
    image[-512 * 512 + 16 * 512 + 16] ^= 2
    (out / "fig2_amplitude_image.pgm").write_bytes(bytes(image))
    failures, moved = builtin_manifest.check(out)
    assert [line.split(":")[0] for line in failures] == [
        "fig2_amplitude_image.pgm", "fig3_incoherent_correlation.csv im",
        "fig4c_correlation.csv re"]
    assert {"fig2_amplitude_image.pgm", "fig4c_correlation.csv"} <= set(
        moved)


def test_pgm_export_constant_data(tmp_path):
    path = tmp_path / "flat.pgm"
    export(np.full(16, 7.25), "image_pgm", str(path))
    img = read_pgm(path)
    assert img.shape == (1, 16)
    assert np.all(img == 0)


def test_pgm_export_normalization_and_orientation(tmp_path):
    grid = make_grid(0.0, 1e-3, 3)
    # rows are y ascending; |C| grows with y, so the file's top row
    # (written first) must be the brightest
    data = np.array([[0.0, 0.0, 0.0],
                     [1.0, 1.0, 1.0],
                     [2.0, 2.0, 2.0]])
    res = CorrelationResult(grid, data.astype(complex), 0.0, 1.0)
    path = tmp_path / "img.pgm"
    export(res, "image_pgm", str(path))
    img = read_pgm(path)
    assert img.shape == (3, 3)
    assert np.all(img[0] == 255)
    assert np.all(img[1] == 128)
    assert np.all(img[2] == 0)


def _pgm_by_expression(data):
    """The PGM bytes with each scaling step a new array: the reference
    for the writer's in-place scaling."""
    data = np.asarray(data, dtype=float)
    lo, hi = data.min(), data.max()
    scaled = (np.zeros(data.shape) if hi == lo
              else (data - lo) / (hi - lo) * 255.0)
    img = np.rint(scaled).astype(np.uint8)
    img = img[None, :] if img.ndim == 1 else img[::-1, :]
    return (f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
            + img.tobytes())


def test_pgm_writer_scales_a_copy_in_place(tmp_path):
    # the same bytes as the step-by-step expression, for each kind of
    # result, and the result's own arrays are left as they were
    rng = np.random.default_rng(3)
    image = rng.normal(size=(40, 30))
    grid = make_grid(0.0, 1e-3, 30)
    flat = np.full(12, 0.5)
    ports = PortIntensities(grid=grid, i_plus=image[0] ** 2, i_minus=flat,
                            diff=flat, background=flat)
    corr = CorrelationResult(grid, image + 1j * image[::-1], 0.0, 1.0)
    for result, held, shown in ((image, image, image), (flat, flat, flat),
                                (ports, ports.i_plus, ports.i_plus),
                                (corr, corr.correlation,
                                 np.abs(corr.correlation))):
        kept = held.copy()
        path = tmp_path / "x.pgm"
        export(result, "image_pgm", str(path))
        assert path.read_bytes() == _pgm_by_expression(shown)
        assert np.array_equal(held, kept)


# ------------------------------------------------------------ run_scenario

def test_run_scenario_end_to_end(tmp_path):
    cfg_path = tmp_path / "unit.json"
    cfg_path.write_text(json.dumps(base_dict(
        outputs=[{"kind": "correlation_csv", "path": "corr.csv"},
                 {"kind": "ports_csv", "path": "ports.csv"},
                 {"kind": "image_pgm", "path": "img.pgm"}])))
    lines = []
    bundle = run_scenario(str(cfg_path), out_dir=str(tmp_path),
                          echo=lines.append)

    assert "scenario unit [analytic]" in lines
    assert "Z = 41.8 cm" in lines
    assert "Zbar = 28.52 cm" in lines
    assert "z_o2_img = 13.28 cm" in lines
    assert "Z_eff = 0 cm (imaging point)" in lines

    assert bundle.optical_path == pytest.approx(0.41802650, abs=1e-10)
    assert bundle.diffraction_length == pytest.approx(0.2852225153333773,
                                                      rel=1e-13)
    assert bundle.z_eff == 0.0
    assert bundle.z_o2_img == pytest.approx(0.13280398, abs=1e-8)

    assert len(bundle.files) == 3
    for path, digest in bundle.files:
        assert os.path.exists(path)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
        assert any(f"wrote {path} sha256={digest}" == s for s in lines)

    header, rows = read_csv(tmp_path / "corr.csv")
    assert len(rows) == 128
    _, prows = read_csv(tmp_path / "ports.csv")
    for row in prows:
        assert row[1] >= 0 and row[2] >= 0


def test_run_scenario_defocused_echo(tmp_path):
    cfg = config_from_dict(base_dict(
        z_o1=0.242, z_o2=(0.183 + 1.5163 * 0.155) - 0.242,
        grid={"half_width": 0.5e-3, "n_samples": 128}))
    lines = []
    bundle = run_scenario(cfg, out_dir=str(tmp_path), echo=lines.append)
    assert any(s.startswith("Z_eff = -5.7") for s in lines)
    assert bundle.z_eff == pytest.approx(-0.0573, abs=2e-4)


def test_run_scenario_is_bitwise_reproducible(tmp_path):
    cfg = config_from_dict(base_dict())
    a = run_scenario(cfg, out_dir=str(tmp_path / "a"), echo=lambda s: None)
    b = run_scenario(cfg, out_dir=str(tmp_path / "b"), echo=lambda s: None)
    assert [d for _, d in a.files] == [d for _, d in b.files]


def test_raster_path_resolves_next_to_the_config(tmp_path):
    sub = tmp_path / "cfgs"
    sub.mkdir()
    px = np.zeros((4, 4), dtype=np.uint8)
    px[1:3, 1:3] = 255
    with open(sub / "mask.pgm", "wb") as fh:
        fh.write(b"P5\n4 4\n255\n" + px.tobytes())

    cfg_path = sub / "scene.json"
    cfg_path.write_text(json.dumps(base_dict(
        object={"kind": "raster", "pitch": 60e-6, "path": "mask.pgm"},
        grid={"half_width": 0.3e-3, "n_samples": 64},
        outputs=[{"kind": "image_pgm", "path": "out.pgm"}])))

    out = tmp_path / "out"
    out.mkdir()
    bundle = run_scenario(str(cfg_path), out_dir=str(out),
                          echo=lambda s: None)
    img = read_pgm(out / "out.pgm")
    assert img.shape == (64, 64)
    assert img.max() == 255
    assert len(bundle.files) == 1


def test_inline_pixel_raster_runs(tmp_path):
    by_name = {c.name: c for c in builtin_scenarios()}
    bundle = run_scenario(by_name["fig2_amplitude"], out_dir=str(tmp_path),
                          echo=lambda s: None)
    img = read_pgm(tmp_path / "fig2_amplitude_image.pgm")
    assert img.shape == (512, 512)
    assert bundle.z_eff == 0.0


def test_ensemble_scenario_writes_all_outputs(tmp_path):
    cfg = config_from_dict(base_dict(
        mode="ensemble",
        grid={"half_width": 0.25e-3, "n_samples": 32},
        ensemble={"n_realizations": 16, "seed": 7},
        outputs=[{"kind": "correlation_csv", "path": "c.csv"},
                 {"kind": "ports_csv", "path": "p.csv"},
                 {"kind": "image_pgm", "path": "i.pgm"}]))
    lines = []
    run_scenario(cfg, out_dir=str(tmp_path), echo=lines.append)
    header, rows = read_csv(tmp_path / "c.csv")
    assert header == ["x_m", "re", "im", "abs2"]
    assert len(rows) == 32
    _, prows = read_csv(tmp_path / "p.csv")
    # ensemble ports close exactly: sum is the two arm intensities
    for crow, prow in zip(rows, prows):
        assert prow[3] == pytest.approx(2 * crow[1], rel=1e-12)
    assert read_pgm(tmp_path / "i.pgm").shape == (1, 32)


def test_coherent_scenario_ports(tmp_path):
    # coarse grid -> spectral route, where the plane wave propagates
    # exactly; equal arms leave the constructive port with everything
    cfg = config_from_dict(base_dict(
        mode="coherent",
        object={"kind": "uniform", "value": 1.0},
        grid={"half_width": 2e-3, "n_samples": 64},
        outputs=[{"kind": "ports_csv", "path": "p.csv"}]))
    run_scenario(cfg, out_dir=str(tmp_path), echo=lambda s: None)
    _, rows = read_csv(tmp_path / "p.csv")
    mid = rows[len(rows) // 2]
    # equal arms, constructive port: i_plus = 2, i_minus = 0, diff = 2
    assert mid[1] == pytest.approx(2.0, rel=1e-6)
    assert abs(mid[2]) <= 1e-6
    assert mid[3] == pytest.approx(2.0, rel=1e-6)
