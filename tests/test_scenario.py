"""Scenario configs, builtin catalog, exporters, and end-to-end runs."""

import csv
import hashlib
import json
import math
import os

import numpy as np
import pytest

from wavecorr import (CorrelationResult, PortIntensities,
                      builtin_scenarios, config_from_dict, export, make_grid,
                      read_pgm, run_scenario)
from wavecorr.errors import ScenarioValidationError

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
]


@pytest.mark.parametrize("raw,field", REJECTIONS)
def test_config_rejections_carry_field_paths(raw, field):
    with pytest.raises(ScenarioValidationError) as exc:
        config_from_dict(raw)
    assert exc.value.field == field
    assert field in str(exc.value)


def test_coherent_block_defaults_to_plane_wave():
    cfg = config_from_dict(base_dict(
        mode="coherent", outputs=[{"kind": "ports_csv", "path": "p.csv"}]))
    assert cfg.coherent_settings == ("plane_wave", None)


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
