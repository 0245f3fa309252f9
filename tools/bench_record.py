#!/usr/bin/env python3
"""Condense perfbench records into one BENCH_<workload>.json to commit.

    python tools/bench_record.py chaotic_ensemble parent=../parent change=.

Each LABEL=CHECKOUT names a checkout in which `perfbench/run.py
--workload <workload> --seed S --trace 0` has run, once per seed; its
records are CHECKOUT/.perfbench_out/<workload>-seed*-trace0.json. Runs
with --trace 1 there, whose records end in -trace1.json, are read too.
Smoke records (run with --tiny) are skipped, and so are records its
current code did not make: those of another commit than the checkout's
HEAD and those older than its newest src/wavecorr/*.py. Each skipped
record is printed with the reason. For each label the output holds:

- the machine the records ran on and the commit each names, with the
  sha256 of the checkout's src/wavecorr sources and whether they differ
  from that commit (an uncommitted change is measured from its tree);
- for each end-to-end metric of BENCHMARK.json, its value per seed and
  the median and quartiles over the seeds, scaled to the calibration's
  reference speed as run.py prints them and raw (unscaled);
- per seed and per op, the output digests and the failures by class;
- with --trace 1 records, under "layers", each per-layer metric of
  BENCHMARK.json that they all report, per seed and as the median and
  quartiles over the seeds, unscaled as run.py reports them.

The first label is the base. For each other label, every seed it shares
with the base is a pair, and each metric states the pairs the label
wins, both medians and the base's interquartile range: a claimed gain
should win nearly every pair, by more than that range in the median.
The per-layer metrics are paired the same way, under "layers", over the
seeds both labels ran with --trace 1.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def metric_specs(kind="end_to_end"):
    """(name, unit, better) of each metric of BENCHMARK.json's list kind,
    "end_to_end" or "per_layer"."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"], m["better"]) for m in spec[kind]]


def raw_metrics(record):
    """The record's end-to-end metrics without the speed scaling.

    run.py multiplies the timed phase's times by calibration_ref_s over
    the mean calibration of its passes, and takes setup_s as the median
    of the probes' scaled times; peak_rss_mb is not scaled.
    """
    cals = [c for p in record["passes"] for c in p["calibrations_s"]]
    factor = record["calibration_ref_s"] / statistics.fmean(cals)
    raw = {}
    for name, value in record["metrics"].items():
        if name == "setup_s":
            raw[name] = statistics.median(record["setup"]["raw_s"])
        elif name == "peak_rss_mb":
            raw[name] = value
        else:
            raw[name] = value / factor
    return raw


def quartiles(values):
    """{median, q1, q3} of values (inclusive quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def source_state(checkout):
    """(sha256 of src/wavecorr/*.py in name order, differs from HEAD)."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout, "src", "wavecorr",
                                              "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                              cwd=checkout, capture_output=True, text=True,
                              timeout=30)
        dirty = bool(proc.stdout.strip()) if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        dirty = None
    return digest.hexdigest(), dirty


def head_commit(checkout):
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_records(checkout, workload, trace=0):
    """({seed: record}, skipped) of the checkout's full-size records of
    that --trace level that its current code made; skipped lists (path,
    reason) for each record of another commit than HEAD or older than the
    newest src/wavecorr/*.py."""
    pattern = os.path.join(checkout, ".perfbench_out",
                           f"{workload}-seed*-trace{trace}.json")
    head = head_commit(checkout)
    sources = glob.glob(os.path.join(checkout, "src", "wavecorr", "*.py"))
    newest = max(map(os.path.getmtime, sources), default=0.0)
    records, skipped = {}, []
    for path in sorted(glob.glob(pattern)):
        with open(path) as fh:
            record = json.load(fh)
        if record["machine"]["tiny"]:
            continue
        commit = record["machine"]["git_commit"]
        if commit != head:
            skipped.append((path, f"commit {commit}, not HEAD {head}"))
        elif os.path.getmtime(path) < newest:
            skipped.append((path, "older than the newest source"))
        else:
            records[record["machine"]["seed"]] = record
    return dict(sorted(records.items())), skipped


def condense(checkout, records, specs, layer_records=None,
             layer_specs=()):
    """One label's block of the output; layer_records are the label's
    --trace 1 records, {seed: record}, if it has any."""
    machine = {}
    for record in records.values():
        for key, value in record["machine"].items():
            if key not in ("seed", "git_commit", "tolerances"):
                values = machine.setdefault(key, [])
                if value not in values:
                    values.append(value)
    sha, dirty = source_state(checkout)
    runs = {}
    for seed, record in records.items():
        runs[str(seed)] = {
            "commit": record["machine"]["git_commit"],
            "metrics": record["metrics"],
            "raw": raw_metrics(record),
            "failures": record["failures"],
            "ops": {op["name"]: {"digests": op["digests"],
                                 "failures": op["failures"]}
                    for op in record["ops"]},
        }
    metrics = {}
    for name, unit, _ in specs:
        metrics[name] = {
            "unit": unit,
            "scaled": quartiles([r["metrics"][name] for r in runs.values()]),
            "raw": quartiles([r["raw"][name] for r in runs.values()]),
        }
    out = {
        "commits": sorted({r["commit"] or "" for r in runs.values()}),
        "source_sha256": sha,
        "source_differs_from_commit": dirty,
        # a key the records disagree on lists every value seen
        "machine": {k: v[0] if len(v) == 1 else v
                    for k, v in machine.items()},
        "metrics": metrics,
        "runs": runs,
    }
    if layer_records:
        # the metrics every record reports, per seed
        names = [(name, unit) for name, unit, _ in layer_specs
                 if all(name in r["metrics"] for r in layer_records.values())]
        values = {str(seed): {name: r["metrics"][name] for name, _ in names}
                  for seed, r in layer_records.items()}
        out["layers"] = {
            "metrics": {name: {"unit": unit, **quartiles(
                [v[name] for v in values.values()])} for name, unit in names},
            "runs": values,
        }
    return out


def compare(base, other, specs, layer_specs=()):
    """Per metric: the pairs other wins against base, seed by seed; the
    per-layer metrics both report are paired under "layers"."""
    out = _pairs({s: r["metrics"] for s, r in base["runs"].items()},
                 {s: r["metrics"] for s, r in other["runs"].items()}, specs)
    if "layers" in base and "layers" in other:
        both = [spec for spec in layer_specs
                if spec[0] in base["layers"]["metrics"]
                and spec[0] in other["layers"]["metrics"]]
        out["layers"] = _pairs(base["layers"]["runs"],
                               other["layers"]["runs"], both)
    return out


def _pairs(base, other, specs):
    """compare's counts over two {seed: {metric: value}}."""
    seeds = [s for s in other if s in base]
    out = {"seeds": seeds}
    if not seeds:
        return out
    for name, _, better in specs:
        pairs = [(base[s][name], other[s][name]) for s in seeds]
        base_q = quartiles([b for b, _ in pairs])
        out[name] = {
            "pairs": len(pairs),
            "wins": sum((o < b) if better == "lower" else (o > b)
                        for b, o in pairs),
            "base_median": base_q["median"],
            "median": statistics.median(o for _, o in pairs),
            "base_iqr": base_q["q3"] - base_q["q1"],
        }
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("runs", nargs="+", metavar="LABEL=CHECKOUT")
    p.add_argument("--out", help="output path (default: "
                   "BENCH_<workload>.json at the repository root)")
    args = p.parse_args(argv)
    specs = metric_specs()
    layer_specs = metric_specs("per_layer")
    labels = {}
    for item in args.runs:
        label, sep, checkout = item.partition("=")
        if not sep or not label:
            p.error(f"{item!r} is not LABEL=CHECKOUT")
        records, skipped = load_records(checkout, args.workload)
        for path, reason in skipped:
            print(f"{label}: skipped {os.path.relpath(path)}: {reason}")
        if not records:
            p.error(f"no {args.workload} records under {checkout}")
        layers, skipped = load_records(checkout, args.workload, trace=1)
        for path, reason in skipped:
            print(f"{label}: skipped {os.path.relpath(path)}: {reason}")
        labels[label] = condense(checkout, records, specs, layers,
                                 layer_specs)
    names = list(labels)
    bench = {"workload": args.workload, "base": names[0], "labels": labels,
             "pairs": {name: compare(labels[names[0]], labels[name], specs,
                                     layer_specs)
                       for name in names[1:]}}
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for name in names[1:]:
        pairs = bench["pairs"][name]
        for metric, _, _ in specs:
            if metric not in pairs:
                continue
            c = pairs[metric]
            print(f"{name} vs {names[0]} {metric}: {c['wins']}/{c['pairs']} "
                  f"wins, median {c['median']:.6g} against "
                  f"{c['base_median']:.6g} (base IQR {c['base_iqr']:.3g})")
    print(f"wrote {os.path.relpath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
