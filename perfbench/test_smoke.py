"""Smoke tier of the benchmark: tiny sizes of every workload, in seconds.

    python3 -m pytest perfbench -q

Checks that each run prints every metric BENCHMARK.json declares, with
its unit, and that every oracle gate runs and rejects a wrong answer.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wavecorr import cli, scenario  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload, trace):
    path = os.path.join(ROOT, ".perfbench_out",
                        f"{workload}-seed5-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload):
    proc = _bench(workload, 0)
    result = _result(proc)
    # the oracles ran in their own process, so peak_rss_mb is the engine's
    assert not _record(workload, 0)["scipy_loaded"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    lines = proc.stdout.splitlines()
    for name, unit in list(expected.items()) + [("failed_frac", "ratio")]:
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines if line.strip()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    result = _result(_bench(workload, 1))
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert _record(workload, 1)["missing_wrappers"] == []
    assert metrics["trace.coverage"] > 0.9
    chirp_calls = metrics["kernels.chirp_sum.calls"]
    if workload in ("raster_2d", "chaotic_ensemble"):
        assert chirp_calls == 0
    else:
        assert chirp_calls > 0


def test_tracer_finds_every_attribute_it_wraps():
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.missing == []


def test_benchmark_json_lists_the_tracer_metrics():
    specs = [{"name": n, "unit": u, "better": b}
             for n, u, b in tracing.metric_specs()]
    assert BENCH["per_layer"] == specs


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("defocus_sweep", 0, cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ------------------------------------------------------------ the gates

GEOM = oracles.Geometry(589.3e-9, 0.29, 0.128, workloads.SEGMENTS)
SLIT = [(-212.5e-6, -87.5e-6, 1.0), (87.5e-6, 212.5e-6, 1.0)]


def test_slab_matches_direct_quadrature():
    lam, x = 589.3e-9, np.array([-40e-6, 0.0, 150e-6])
    nodes = np.linspace(-62.5e-6, 62.5e-6, 400_001)
    w = nodes[1] - nodes[0]
    for z in (5e-3, -5e-3):
        kernel = np.exp(1j * np.pi * (x[:, None] - nodes[None, :]) ** 2
                        / (lam * z))
        direct = np.sqrt(1 / (1j * lam * z)) * (
            kernel[:, 1:] + kernel[:, :-1]).sum(axis=1) * w / 2
        got = oracles.slab(x, -62.5e-6, 62.5e-6, z, lam)
        assert np.max(np.abs(got - direct)) < 1e-6


def test_closed_form_gate_rejects_a_wrong_array():
    x = np.linspace(-2e-3, 2e-3, 512)
    ref = oracles.correlation_1d(GEOM, SLIT, x)
    tol = oracles.TOLERANCES["closed_form_1d"]
    assert oracles.gate_close(ref * (1 + 1e-4), ref, tol)[0]
    # the phase-reversed pattern, as a sign error in Z_eff would give
    assert not oracles.gate_close(np.conj(ref), ref, tol)[0]
    assert not oracles.gate_close(ref[:-1], ref, tol)[0]
    assert not oracles.gate_close(ref * np.nan, ref, tol)[0]


def test_raster_gate_rejects_a_transposed_image():
    pixels = np.zeros((3, 5))
    pixels[0, :2] = 1.0
    x = np.linspace(-0.3e-3, 0.3e-3, 64)
    ref = oracles.correlation_2d(GEOM, pixels, 60e-6, x)
    tol = oracles.TOLERANCES["closed_form_2d"]
    assert oracles.gate_close(ref, ref, tol)[0]
    assert not oracles.gate_close(ref.T, ref, tol)[0]


def test_ensemble_gates_reject_a_biased_mean():
    ref = np.ones(64, dtype=complex)
    se = np.full(64, 0.01)
    k = oracles.TOLERANCES["ensemble_k"]
    assert oracles.gate_ensemble(ref + 0.02, se, ref, k)[0]
    assert not oracles.gate_ensemble(ref + 0.1, se, ref, k)[0]
    tol = oracles.TOLERANCES["ensemble_binned_l2"]
    assert oracles.gate_binned(ref, ref, 8, tol)[0]
    assert not oracles.gate_binned(0.5 * ref, ref, 8, tol)[0]


@pytest.mark.parametrize("name", ["fig4a", "fig2_phase", "fig2_amplitude",
                                  "fig3_coherent", "fig3_incoherent"])
def test_builtin_gate_rejects_a_corrupted_output(tmp_path, name):
    config = {c.name: c for c in scenario.builtin_scenarios()}[name]
    ref = workloads.builtin_reference(config)
    assert cli.main(["run-builtin", name, "--out", str(tmp_path)]) == 0
    assert workloads._builtin_gates(config, str(tmp_path), ref)[0]
    kind, rel_path = config.outputs[0]
    path = tmp_path / rel_path
    if kind == "image_pgm":
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
    else:
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        # conjugates a correlation; breaks the identities of a ports file
        table[:, 2] = -table[:, 2]
        np.savetxt(path, table, delimiter=",", header="x,a,b,c",
                   comments="")
    assert not workloads._builtin_gates(config, str(tmp_path), ref)[0]


def test_coherent_gate_rejects_well_formed_ports_of_another_geometry(
        tmp_path):
    """Ports that satisfy the identities but come from a wrong propagation."""
    config = {c.name: c for c in scenario.builtin_scenarios()}[
        "fig3_coherent"]
    ref = workloads.builtin_reference(config)
    geom, x = workloads._builtin_geometry(config)
    wrong = oracles.Geometry(geom.wavelength, geom.z_o1 * 1.05, geom.z_o2,
                             geom.segments)
    width = config.coherent_settings[1]
    pinhole = oracles.sampled_edges(-width / 2, width / 2, x)
    apertures = [oracles.sampled_edges(lo, hi, x) + (v,) for lo, hi, v in
                 workloads._object_reference(config.object_descriptor)]
    # a propagation over the wrong length, and the two ports swapped
    for p, total in (oracles.coherent_ports(wrong, pinhole, apertures, x),
                     (ref[1] - ref[0], ref[1])):
        table = np.column_stack([x, p, total - p, 2 * p - total, total])
        np.savetxt(tmp_path / config.outputs[0][1], table, delimiter=",",
                   header="x_m,i_plus,i_minus,diff,sum", comments="")
        assert not workloads._builtin_gates(config, str(tmp_path), ref)[0]
    table = np.column_stack([x, ref[0], ref[1] - ref[0], 2 * ref[0] - ref[1],
                             ref[1]])
    np.savetxt(tmp_path / config.outputs[0][1], table, delimiter=",",
               header="x_m,i_plus,i_minus,diff,sum", comments="")
    assert workloads._builtin_gates(config, str(tmp_path), ref)[0]
