"""Command-line interface: subcommands, exit codes, and reproducibility."""

import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import wavecorr
from wavecorr import (InterferometerSpec, MediumSegment, OpticsContext,
                      config_from_dict, correlation_analytic, double_slit,
                      make_grid, read_pgm, scenario)
from wavecorr.cli import main
from wavecorr.errors import InvalidArgumentError

IMAGING_Z_O1 = 0.183 + 0.155 / 1.5163
TOTAL_Z = 0.183 + 1.5163 * 0.155


def config_dict(**over):
    d = {
        "name": "cli-unit",
        "mode": "analytic",
        "wavelength": 589.3e-9,
        "z_o1": IMAGING_Z_O1,
        "z_o2": TOTAL_Z - IMAGING_Z_O1,
        "reference_segments": [{"length": 0.183, "index": 1.0},
                               {"length": 0.155, "index": 1.5163}],
        "object": {"kind": "double_slit", "b": 125e-6, "d": 300e-6},
        "grid": {"half_width": 0.5e-3, "n_samples": 128},
        "source": {"intensity": 1.0, "width": 0.01},
        "outputs": [{"kind": "correlation_csv", "path": "corr.csv"}],
    }
    d.update(over)
    return d


def read_rows(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in r] for r in rows[1:]]


def wrote_digests(stdout):
    return re.findall(r"^wrote .* sha256=([0-9a-f]{64})$", stdout, re.M)


# ------------------------------------------------------------ subcommands

def test_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    table = dict(line.split("\t") for line in lines)
    assert table["fig3_incoherent"] == "ensemble"
    assert table["fig3_coherent"] == "coherent"
    assert table["fig4b"] == "analytic"


def test_show_builtin_round_trips(capsys):
    assert main(["show-builtin", "fig4c"]) == 0
    cfg = config_from_dict(json.loads(capsys.readouterr().out))
    assert cfg.name == "fig4c"
    assert cfg.z_o1 == pytest.approx(0.242)


def test_show_builtin_unknown_name(capsys):
    assert main(["show-builtin", "fig9z"]) == 3
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "unknown builtin" in err


def test_run_builtin_builds_only_the_named_config(tmp_path, monkeypatch,
                                                  capsys):
    # the named builtin is validated alone, not the catalogue of nine
    built = []
    build = scenario.config_from_dict
    monkeypatch.setattr(scenario, "config_from_dict",
                        lambda raw: built.append(raw["name"]) or build(raw))
    assert main(["run-builtin", "fig4b", "--out", str(tmp_path)]) == 0
    assert built == ["fig4b"]
    assert main(["run-builtin", "fig9z", "--out", str(tmp_path)]) == 3
    assert "unknown builtin" in capsys.readouterr().err
    assert built == ["fig4b"]


def test_run_builtin_imaging_scenario(tmp_path, capsys):
    assert main(["run-builtin", "fig4b", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "scenario fig4b [analytic]" in out
    assert "Z = 41.8 cm" in out
    assert "Zbar = 28.52 cm" in out
    assert "Z_eff = 0 cm (imaging point)" in out
    assert len(wrote_digests(out)) == 1

    rows = read_rows(tmp_path / "fig4b_correlation.csv")
    assert len(rows) == 4096
    x = np.array([r[0] for r in rows])
    abs2 = np.array([r[3] for r in rows])
    # exact reconstruction: |C|^2 is the slit pair at |prefactor|^2
    k0 = 2 * np.pi / 589.3e-9
    peak = k0 / (2 * np.pi * (TOTAL_Z - IMAGING_Z_O1))
    assert abs2.max() == pytest.approx(peak, rel=1e-9)
    assert np.all(abs2[np.abs(x) < 50e-6] == 0)
    inside = np.abs(np.abs(x) - 150e-6) < 50e-6
    assert abs2[inside] == pytest.approx(peak, rel=1e-9)


def test_run_builtin_defocus_is_reproducible(tmp_path, capsys):
    assert main(["run-builtin", "fig4a", "--out", str(tmp_path / "a")]) == 0
    first = wrote_digests(capsys.readouterr().out)
    assert main(["run-builtin", "fig4a", "--out", str(tmp_path / "b")]) == 0
    second = wrote_digests(capsys.readouterr().out)
    assert first and first == second
    rows = read_rows(tmp_path / "a" / "fig4a_correlation.csv")
    assert len(rows) == 4096


def test_run_builtin_ensemble_is_reproducible(tmp_path, capsys):
    assert main(["run-builtin", "fig3_incoherent",
                 "--out", str(tmp_path / "a")]) == 0
    out_a = capsys.readouterr().out
    assert "scenario fig3_incoherent [ensemble]" in out_a
    assert main(["run-builtin", "fig3_incoherent",
                 "--out", str(tmp_path / "b")]) == 0
    out_b = capsys.readouterr().out
    assert wrote_digests(out_a) == wrote_digests(out_b)
    assert len(wrote_digests(out_a)) == 2


def test_show_and_run_matches_run_builtin(tmp_path, capsys):
    assert main(["show-builtin", "fig2_phase"]) == 0
    cfg_path = tmp_path / "fig2_phase.json"
    cfg_path.write_text(capsys.readouterr().out)

    assert main(["run", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    from_file = wrote_digests(capsys.readouterr().out)
    assert main(["run-builtin", "fig2_phase", "--out", str(tmp_path / "b")]) == 0
    from_builtin = wrote_digests(capsys.readouterr().out)
    assert from_file == from_builtin
    assert len(from_file) == 2


# ------------------------------------------------------------- exit codes

def test_run_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "scene.json"
    cfg_path.write_text(json.dumps(config_dict()))
    out_dir = tmp_path / "made-by-cli"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "corr.csv").exists()


def test_missing_config_file_is_exit_3(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 3
    assert "invalid config" in capsys.readouterr().err


def test_malformed_json_is_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text('{"name": "x", \n  "mode": }')
    assert main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "parse error: line 2" in err
    assert "column" in err


def test_invalid_field_is_exit_3(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config_dict(mode="quantum")))
    assert main(["run", str(cfg_path)]) == 3
    assert "mode" in capsys.readouterr().err


def test_runtime_failure_is_exit_4(tmp_path, capsys):
    # structurally valid but numerically hopeless: 250 um sampling of a
    # 125 um slit trips the resolution guard during the run
    cfg_path = tmp_path / "coarse.json"
    cfg_path.write_text(json.dumps(config_dict(
        grid={"half_width": 2e-3, "n_samples": 16})))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 4
    assert "run failed" in capsys.readouterr().err


def test_pinhole_between_grid_samples_is_exit_4(tmp_path, capsys):
    # fig3_coherent's grid spacing is 1.95 um: a 0.1 um pinhole lights no
    # sample, which would write all-zero ports
    assert main(["show-builtin", "fig3_coherent"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    cfg["coherent"]["pinhole_width"] = 1e-7
    cfg_path = tmp_path / "pinhole.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 4
    assert "covers no grid sample" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("data", [
    pytest.param(b"P5\n3", id="header-cut-after-width"),
    pytest.param(b"P5\n3 2\nabc\n" + bytes(6), id="text-maxval"),
    pytest.param(b"P5\nthree 2\n255\n" + bytes(6), id="text-width"),
    pytest.param(b"P5\n3 -2\n255\n" + bytes(6), id="negative-height"),
    pytest.param(b"P5\n0 2\n255\n", id="zero-width"),
    pytest.param(b"P5\n3 2\n255\n\x00\x01", id="short-pixel-data"),
])
def test_malformed_pgm_is_exit_3(tmp_path, capsys, data):
    (tmp_path / "mask.pgm").write_bytes(data)
    with pytest.raises(InvalidArgumentError):
        read_pgm(tmp_path / "mask.pgm")
    cfg_path = tmp_path / "raster.json"
    cfg_path.write_text(json.dumps(config_dict(
        object={"kind": "raster", "pitch": 60e-6, "path": "mask.pgm"},
        outputs=[{"kind": "image_pgm", "path": "out.pgm"}])))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert "object.path" in capsys.readouterr().err


IMAGE_OUT = [{"kind": "image_pgm", "path": "out.pgm"}]


@pytest.mark.parametrize("over,field", [
    pytest.param({"wavelength": math.inf}, "wavelength", id="inf-wavelength"),
    # finite fields whose wavenumber or grid spacing overflow
    pytest.param({"wavelength": 1e-320}, "wavelength",
                 id="overflowing-wavenumber"),
    pytest.param({"grid": {"half_width": 1e308, "n_samples": 128}},
                 "grid.half_width", id="overflowing-grid-spacing"),
    pytest.param({"grid": {"half_width": 0.5e-3, "n_samples": 128,
                           "center": math.nan}},
                 "grid.center", id="nan-grid-center"),
    pytest.param({"grid": {"half_width": 0.5e-3, "n_samples": 128,
                           "center": math.inf}},
                 "grid.center", id="inf-grid-center"),
    pytest.param({"reference_segments": [{"length": 0.183, "index": 1.0},
                                         {"length": 0.155,
                                          "index": math.nan}]},
                 "reference_segments[1].index", id="nan-segment-index"),
    pytest.param({"object": {"kind": "phase_holes", "hole_width": 2e-4,
                             "separation": 5e-4, "phase_shift": math.nan}},
                 "object.phase_shift", id="nan-phase-shift"),
    pytest.param({"object": {"kind": "double_slit", "b": 125e-6,
                             "d": math.inf}},
                 "object.d", id="inf-slit-spacing"),
    pytest.param({"object": {"kind": "uniform", "value": ["a", "b"]}},
                 "object.value", id="text-complex-value"),
    pytest.param({"object": {"kind": "uniform", "value": 2}},
                 "object.value", id="value-above-one"),
    pytest.param({"object": {"kind": "raster", "pitch": 60e-6,
                             "pixels": [[0, 255], [255]]},
                  "outputs": IMAGE_OUT},
                 "object.pixels", id="ragged-pixels"),
    pytest.param({"object": {"kind": "raster", "pitch": 60e-6,
                             "pixels": [["dark", "light"]]},
                  "outputs": IMAGE_OUT},
                 "object.pixels", id="text-pixels"),
    pytest.param({"object": {"kind": "raster", "pitch": 60e-6,
                             "pixels": [[300]]},
                  "outputs": IMAGE_OUT},
                 "object.pixels", id="pixel-above-255"),
    # only the analytic engine takes a raster
    pytest.param({"mode": "ensemble",
                  "ensemble": {"n_realizations": 4, "seed": 1},
                  "object": {"kind": "raster", "pitch": 60e-6,
                             "pixels": [[255, 0, 255]]}},
                 "object.kind", id="raster-in-ensemble-mode"),
    pytest.param({"mode": "coherent",
                  "object": {"kind": "raster", "pitch": 60e-6,
                             "pixels": [[255, 0, 255]]},
                  "outputs": [{"kind": "ports_csv", "path": "p.csv"}]},
                 "object.kind", id="raster-in-coherent-mode"),
])
def test_bad_number_or_object_is_exit_3(tmp_path, capsys, over, field):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config_dict(**over)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert f"invalid config: {field}:" in captured.err
    assert "Traceback" not in captured.err
    # rejected before the ledger is printed or any output written
    assert captured.out == ""
    assert os.listdir(tmp_path) == ["bad.json"]


@pytest.mark.parametrize("over", [
    pytest.param({"grid": {"half_width": 0.5e-3, "n_samples": 10 ** 15}},
                 id="1d-1e15"),
    pytest.param({"grid": {"half_width": 0.5e-3, "n_samples": 2 ** 21 + 1}},
                 id="1d-above-cap"),
    pytest.param({"grid": {"half_width": 0.5e-3, "n_samples": 1449},
                  "object": {"kind": "raster", "pitch": 60e-6,
                             "pixels": [[0, 255]]},
                  "outputs": IMAGE_OUT},
                 id="raster-above-cap"),
])
def test_oversized_grid_is_exit_3(tmp_path, capsys, over):
    # rejected while validating, before any array is allocated
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(config_dict(**over)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "invalid config: grid.n_samples:" in err
    assert "Traceback" not in err


def _file(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return str(path)


@pytest.mark.parametrize("argv,code", [
    pytest.param(lambda tmp: ["run", str(tmp)], 3,
                 id="config-is-a-directory"),
    pytest.param(lambda tmp: ["run", _file(
        tmp / "c.json", json.dumps(config_dict(name="caf\xe9"),
                                   ensure_ascii=False).encode("latin-1"))],
                 2, id="config-not-utf8"),
    pytest.param(lambda tmp: ["run", _file(
        tmp / "c.json", "[" * 100_000 + "]" * 100_000)],
                 2, id="config-nested-100k-deep"),
    pytest.param(lambda tmp: ["run", _file(
        tmp / "c.json", json.dumps(config_dict())),
        "--out", _file(tmp / "out", "")], 3, id="out-is-a-file"),
    pytest.param(lambda tmp: ["run", _file(tmp / "c.json", json.dumps(
        config_dict(outputs=[{"kind": "correlation_csv",
                              "path": str(tmp)}])))],
                 3, id="output-is-a-directory"),
])
def test_unreadable_config_or_unwritable_output_exits_cleanly(
        tmp_path, capsys, argv, code):
    assert main(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert err.startswith("parse error:" if code == 2 else "invalid config:")
    assert "Traceback" not in err


@pytest.mark.parametrize("over,field", [
    pytest.param({"outputs": [{"kind": "correlation_csv",
                               "path": "a\0b.csv"}]},
                 "outputs[0].path", id="output-path"),
    pytest.param({"object": {"kind": "raster", "pitch": 60e-6,
                             "path": "m\0.pgm"},
                  "outputs": IMAGE_OUT},
                 "object.path", id="raster-path"),
])
def test_nul_in_a_path_is_exit_3(tmp_path, capsys, over, field):
    cfg_path = tmp_path / "nul.json"
    cfg_path.write_text(json.dumps(config_dict(**over)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"invalid config: {field}:" in err
    assert "Traceback" not in err


def test_outputs_resolving_to_one_file_are_exit_3(tmp_path, capsys):
    # a relative and an absolute path that meet only once joined with
    # --out; neither file is written
    out_dir = tmp_path / "out"
    cfg_path = tmp_path / "same.json"
    cfg_path.write_text(json.dumps(config_dict(outputs=[
        {"kind": "correlation_csv", "path": "same.csv"},
        {"kind": "image_pgm", "path": str(out_dir / "same.csv")}])))
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 3
    captured = capsys.readouterr()
    assert "invalid config: outputs[1].path: written by an earlier output" \
        in captured.err
    assert "wrote" not in captured.out
    assert not (out_dir / "same.csv").exists()


def test_outputs_through_a_symlinked_directory_are_two_files(tmp_path,
                                                             capsys):
    # link/../b.csv climbs out of the link's target, not back into out
    out_dir = tmp_path / "out"
    target = tmp_path / "elsewhere" / "dir"
    target.mkdir(parents=True)
    out_dir.mkdir()
    (out_dir / "link").symlink_to(target, target_is_directory=True)
    cfg_path = tmp_path / "link.json"
    cfg_path.write_text(json.dumps(config_dict(outputs=[
        {"kind": "correlation_csv", "path": "b.csv"},
        {"kind": "image_pgm", "path": "link/../b.csv"}])))
    assert main(["run", str(cfg_path), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    assert (out_dir / "b.csv").read_bytes().startswith(b"x_m,")
    assert (tmp_path / "elsewhere" / "b.csv").read_bytes().startswith(b"P5")


def _at_regime_ratio_1(n=64):
    # fft regime ratio lambda |Zbar| / (n dx^2) = 1 on the reference arm,
    # with dx = 2 * half_width / n
    return {"half_width": math.sqrt(589.3e-9 * IMAGING_Z_O1 * n) / 2,
            "n_samples": n}


@pytest.mark.parametrize("over,code", [
    pytest.param({"object": {"kind": "double_slit", "b": 40e-6, "d": 100e-6}},
                 "ResolutionWarning", id="40um-slit"),
    # the switch between propagate's two fft forms is no caveat
    pytest.param({"mode": "coherent", "object": {"kind": "uniform"},
                  "grid": _at_regime_ratio_1(),
                  "outputs": [{"kind": "ports_csv", "path": "p.csv"}]},
                 None, id="coherent-at-ratio-1"),
    pytest.param({"z_o2": TOTAL_Z - IMAGING_Z_O1 + 1e-4},
                 "EqualPathWarning", id="paths-within-tolerance"),
    # an ensemble run's StatisticsWarning: see
    # test_noisy_ensemble_ports_are_written_with_a_notice
])
def test_notices_go_to_stderr_with_their_code(tmp_path, capsys, over, code):
    cfg_path = tmp_path / "notice.json"
    cfg_path.write_text(json.dumps(config_dict(**over)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    # stderr holds the one notice of that code, or nothing
    lines = captured.err.splitlines()
    assert len(lines) == (1 if code else 0)
    for line in lines:
        assert re.fullmatch(rf"warning: {code}: \S.*", line)
    assert "warning" not in captured.out
    for line in captured.out.splitlines():
        assert re.match(r"(scenario|Z|Zbar|z_o2_img|Z_eff) |wrote ", line)


def test_noisy_ensemble_ports_are_written_with_a_notice(tmp_path, capsys):
    # the background is exact but the mean a sample, so at small n noise
    # alone puts background/2 below |Re mean| at some points: 19 of these
    # seeds at n = 1 and 4 at n = 2 did so on an earlier draw, and the run
    # exited 4. It writes the ports, negative there, and names the worst
    # point in a StatisticsWarning on stderr, by a finite, nonzero count
    # of standard errors at n = 1 too
    cfg_path = tmp_path / "noisy.json"
    outputs = [{"kind": "ports_csv", "path": "p.csv"}]
    negative = 0
    for n in (1, 2):
        for seed in range(1, 41):
            cfg_path.write_text(json.dumps(config_dict(
                mode="ensemble", outputs=outputs,
                ensemble={"n_realizations": n, "seed": seed})))
            assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
            captured = capsys.readouterr()
            assert "warning" not in captured.out
            err = captured.err.splitlines()
            assert all(re.fullmatch(r"warning: StatisticsWarning: \S.*", line)
                       for line in err)
            rows = np.array(read_rows(tmp_path / "p.csv"))
            named = [float(m) for line in err
                     for m in re.findall(r"the worst, x = (\S+) m", line)]
            assert len(named) == int(rows[:, 1:3].min() < 0)
            for x in named:
                assert rows[np.abs(rows[:, 0] - x).argmin(), 1:3].min() < 0
            for line in err:
                for sigmas in re.findall(r"\((\S+) standard errors\)", line):
                    assert 0 < float(sigmas) < math.inf
            negative += len(named)
    assert negative > 0


def test_notices_are_printed_when_the_run_fails(tmp_path, capsys):
    # the equal-path notice comes before the resolution guard fails
    cfg_path = tmp_path / "coarse.json"
    cfg_path.write_text(json.dumps(config_dict(
        z_o2=TOTAL_Z - IMAGING_Z_O1 + 1e-4,
        grid={"half_width": 2e-3, "n_samples": 16})))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("run failed: ")
    assert err[1].startswith("warning: EqualPathWarning: ")


def test_rounding_level_path_mismatch_prints_no_notice(tmp_path, capsys):
    # 0.8 * 0.3 and 0.1 + 0.14 round one ulp apart
    cfg_path = tmp_path / "rounded.json"
    cfg_path.write_text(json.dumps(config_dict(
        z_o1=0.1, z_o2=0.14,
        reference_segments=[{"length": 0.3, "index": 0.8}])))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_reference_arm_with_z_below_zbar_runs(tmp_path, capsys):
    # 30 cm of air, then 2 cm of index -2: Z = 26 cm < Zbar = 29 cm, so
    # the imaging position lies past the detector, but any object
    # position on the equal-path line has a finite Z_eff
    segments = [{"length": 0.3, "index": 1.0},
                {"length": 0.02, "index": -2.0}]
    cfg_path = tmp_path / "negative.json"
    cfg_path.write_text(json.dumps(config_dict(
        z_o1=0.2, z_o2=0.06, reference_segments=segments)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "z_o2_img = -3 cm" in captured.out
    spec = InterferometerSpec(
        OpticsContext(589.3e-9), 0.2, 0.06,
        [MediumSegment(s["length"], s["index"]) for s in segments],
        double_slit(125e-6, 300e-6), 0.01)
    grid = make_grid(0.0, 0.5e-3, 128)
    c = correlation_analytic(spec, grid).correlation
    want = np.column_stack([grid.coordinates(), c.real, c.imag,
                            c.real * c.real + c.imag * c.imag])
    assert np.array_equal(read_rows(tmp_path / "corr.csv"), want)


def test_object_next_to_the_imaging_point_exits_cleanly(tmp_path, capsys):
    # 0.1 um from Zbar: Z_eff ~ 1e-7 m, far too fine a chirp for the node
    # cap, so this is a clean runtime failure rather than a traceback.
    # Exact edge integrals in the 1D engine (ROADMAP item 2) turn it into
    # exit 0, as they did for rasters; update this test when that lands.
    z_o1 = IMAGING_Z_O1 + 1e-7
    cfg_path = tmp_path / "near.json"
    cfg_path.write_text(json.dumps(config_dict(z_o1=z_o1,
                                               z_o2=TOTAL_Z - z_o1)))
    assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 4
    assert "quadrature would need" in capsys.readouterr().err


def test_raster_next_to_the_imaging_point_runs(tmp_path, capsys):
    # 0.1 um from Zbar, Z_eff ~ 1e-7 m: the 2D engine's cost does not
    # grow there, and its image is the mask's but for edge ringing
    pixels = [[0, 255, 0], [255, 128, 255]]
    images = []
    for dz in (1e-7, 0.0):
        z_o1 = IMAGING_Z_O1 + dz
        cfg_path = tmp_path / f"near{dz}.json"
        cfg_path.write_text(json.dumps(config_dict(
            z_o1=z_o1, z_o2=TOTAL_Z - z_o1,
            object={"kind": "raster", "pitch": 60e-6, "pixels": pixels},
            grid={"half_width": 0.12e-3, "n_samples": 16},
            outputs=[{"kind": "image_pgm", "path": f"near{dz}.pgm"}])))
        assert main(["run", str(cfg_path), "--out", str(tmp_path)]) == 0
        images.append(read_pgm(tmp_path / f"near{dz}.pgm").astype(int))
    assert "Z_eff = 1e-05 cm" in capsys.readouterr().out
    # grid points sit 7.5 um or more from a pixel edge, where each edge's
    # tail is below 1 / (pi t) = 0.7 % (t = 44); 2 levels here
    assert np.abs(images[0] - images[1]).max() <= 3


def _child_env():
    # the child runs the package this process imported, whether it came
    # from PYTHONPATH, pytest's pythonpath setting or an install
    root = os.path.dirname(os.path.dirname(wavecorr.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "wavecorr.cli",
                           "list-builtins"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 9


def test_builtin_run_loads_no_oracle_library(tmp_path):
    # numpy is the package's only dependency; scipy and mpmath may serve
    # the tests and the benchmark as oracles but must stay out of a run
    # fig2_amplitude sits at Z_eff = 0, so a defocused raster is run too:
    # it takes the Fresnel integrals of the 2D engine
    cfg_path = tmp_path / "raster.json"
    z_o1 = IMAGING_Z_O1 + 0.02
    cfg_path.write_text(json.dumps(config_dict(
        z_o1=z_o1, z_o2=TOTAL_Z - z_o1,
        object={"kind": "raster", "pitch": 60e-6,
                "pixels": [[0, 255, 0], [255, 128, 255]]},
        grid={"half_width": 0.3e-3, "n_samples": 40},
        outputs=[{"kind": "image_pgm", "path": "raster.pgm"}])))
    code = ("import sys; from wavecorr.cli import main; "
            "rc = main(['run-builtin', 'fig2_phase', '--out', sys.argv[1]]); "
            "rc2 = main(['run', sys.argv[2], '--out', sys.argv[1]]); "
            "print(rc, rc2, *sorted({'scipy', 'mpmath'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path),
                           str(cfg_path)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0"
