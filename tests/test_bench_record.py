"""tools/bench_record.py: condensing benchmark records into one file."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

NAMES = [name for name, _, _ in bench_record.metric_specs()]


@pytest.fixture(autouse=True)
def _head_is_abc(monkeypatch):
    # the records below name commit "abc"; the temporary checkouts are
    # not git repositories
    monkeypatch.setattr(bench_record, "head_commit", lambda checkout: "abc")


def _write_record(checkout, seed, wall, cal, tiny=False, commit="abc"):
    # a record as perfbench/run.py writes it: every time scaled by the
    # reference calibration over the mean calibration between ops
    factor = 0.029 / cal
    metrics = {name: wall * factor for name in NAMES}
    metrics["setup_s"] = 2.0 * factor
    metrics["peak_rss_mb"] = 60.0 + seed
    record = {
        "machine": {"seed": seed, "tiny": tiny, "git_commit": commit,
                    "numpy": "2.x", "nproc": 2, "tolerances": {}},
        "passes": [{"calibrations_s": [cal, cal]}],
        "calibration_ref_s": 0.029,
        "setup": {"raw_s": [1.0, 2.0, 3.0], "calibrations_s": [cal]},
        "metrics": metrics,
        "failures": {},
        "ops": [{"name": "op a", "digests": [f"d{seed}"], "failures": {}}],
    }
    out = os.path.join(checkout, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"w-seed{seed}-trace0.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    return path


def test_records_condense_to_quartiles_raw_times_and_pairs(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for seed, wall in zip(range(1, 6), (0.10, 0.12, 0.11, 0.13, 0.14)):
        _write_record(base, seed, wall, cal=0.058)
        _write_record(change, seed, wall - 0.02 if seed != 3 else 0.2,
                      cal=0.058)
    _write_record(change, 9, 0.5, cal=0.058)  # no base run: not a pair
    _write_record(base, 7, 9.0, cal=0.058, tiny=True)  # a smoke record
    out = tmp_path / "BENCH_w.json"
    assert bench_record.main(["w", f"parent={base}", f"change={change}",
                              "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    parent = bench["labels"]["parent"]
    assert list(parent["runs"]) == ["1", "2", "3", "4", "5"]
    wall = parent["metrics"]["wall_s"]
    # scaled by 0.029 / 0.058 = 1/2; raw is the timed value itself
    assert wall["raw"] == pytest.approx(
        {"median": 0.12, "q1": 0.11, "q3": 0.13})
    assert wall["scaled"]["median"] == pytest.approx(0.06)
    assert parent["metrics"]["setup_s"]["raw"]["median"] == 2.0
    assert parent["runs"]["2"]["ops"]["op a"]["digests"] == ["d2"]
    assert parent["machine"]["numpy"] == "2.x"
    pairs = bench["pairs"]["change"]
    assert pairs["seeds"] == ["1", "2", "3", "4", "5"]
    assert pairs["wall_s"]["wins"] == 4
    assert pairs["wall_s"]["pairs"] == 5
    assert pairs["wall_s"]["base_iqr"] == pytest.approx(0.01)


def _write_layers(checkout, seed, self_s):
    # a --trace 1 record: per-layer metrics, unscaled, and no set-up
    record = {
        "machine": {"seed": seed, "tiny": False, "git_commit": "abc"},
        "metrics": {"interferometer.correlation_analytic_2d.self_s": self_s,
                    "interferometer.correlation_analytic_2d.calls": 11.0,
                    "not.in.benchmark": 1.0},
    }
    path = os.path.join(checkout, ".perfbench_out",
                        f"w-seed{seed}-trace1.json")
    with open(path, "w") as fh:
        json.dump(record, fh)


def test_per_layer_records_condense_and_pair(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    for seed in (1, 2, 3):
        _write_record(base, seed, 0.1, cal=0.058)
        _write_record(change, seed, 0.1, cal=0.058)
        _write_layers(base, seed, 0.010 + 0.001 * seed)
        _write_layers(change, seed, 0.020 if seed == 2 else 0.008)
    out = tmp_path / "BENCH_w.json"
    assert bench_record.main(["w", f"parent={base}", f"change={change}",
                              "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    self_s = "interferometer.correlation_analytic_2d.self_s"
    layers = bench["labels"]["parent"]["layers"]
    # the metrics BENCHMARK.json names, unscaled, per seed and condensed
    assert set(layers["metrics"]) == {
        self_s, "interferometer.correlation_analytic_2d.calls"}
    assert layers["metrics"][self_s]["unit"] == "s"
    assert layers["metrics"][self_s]["median"] == pytest.approx(0.012)
    assert layers["runs"]["3"][self_s] == pytest.approx(0.013)
    pairs = bench["pairs"]["change"]["layers"]
    assert pairs["seeds"] == ["1", "2", "3"]
    assert pairs[self_s]["wins"] == 2
    assert pairs[self_s]["median"] == pytest.approx(0.008)
    assert pairs[self_s]["base_iqr"] == pytest.approx(0.001)
    # the end-to-end block is as it is without them
    assert bench["pairs"]["change"]["wall_s"]["pairs"] == 3


def test_a_checkout_without_records_is_an_error(tmp_path, capsys):
    with pytest.raises(SystemExit):
        bench_record.main(["w", f"parent={tmp_path}",
                           "--out", str(tmp_path / "x.json")])
    assert "no w records" in capsys.readouterr().err


def test_records_of_other_code_are_skipped_and_named(tmp_path, capsys):
    # a record of another commit, and one made before the newest source
    # file changed, are left out of the quartiles and printed
    base = tmp_path / "base"
    for seed in (1, 2, 3):
        _write_record(base, seed, 0.1 * seed, cal=0.058)
    _write_record(base, 4, 9.0, cal=0.058, commit="old")
    stale = _write_record(base, 5, 9.0, cal=0.058)
    source = base / "src" / "wavecorr" / "_kernels.py"
    source.parent.mkdir(parents=True)
    source.write_text("")
    for path, when in ((stale, 1_000), (source, 2_000)):
        os.utime(path, (when, when))
    for seed in (1, 2, 3):
        os.utime(base / ".perfbench_out" / f"w-seed{seed}-trace0.json",
                 (3_000, 3_000))
    out = tmp_path / "BENCH_w.json"
    assert bench_record.main(["w", f"parent={base}", "--out", str(out)]) == 0
    assert list(json.loads(out.read_text())["labels"]["parent"]["runs"]) == [
        "1", "2", "3"]
    printed = capsys.readouterr().out
    assert "w-seed4-trace0.json: commit old, not HEAD abc" in printed
    assert "w-seed5-trace0.json: older than the newest source" in printed
