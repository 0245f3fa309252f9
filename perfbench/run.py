#!/usr/bin/env python3
"""wavecorr benchmark: seeded workloads through the public API, gated.

    python3 perfbench/run.py --workload defocus_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in this process: set-up probes, warm-up, then
complete passes over the workload's ops until --seconds have elapsed.
The oracle references are computed first, in a child process, and
every op's output is gated against them and hashed. A fixed calibration
unit is timed between ops, and end-to-end times are reported at the
calibration's reference speed (see `speed_factor`). --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run
(each op runs once traced and once not, so the run also measures its
own tracing overhead). The last line of standard output is one JSON
object; the full record (machine, tolerances, unscaled times and the
calibrations, per-op digests) goes to .perfbench_out/ in the checkout.
`--workload all` runs each workload in a fresh process and prints a
summary table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = os.cpu_count()
# One BLAS thread, not nproc: with two threads on two vCPUs, one competing
# process slowed builtin_suite 1.8x, against 1.06x with one thread.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("defocus_sweep", "raster_2d", "chaotic_ensemble", "builtin_suite")
# set-up is measured this many times per run, each in a fresh process
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150
# seconds the calibration unit takes at the reference speed: its median
# on an idle 2-vCPU x86-64 VM (numpy 2.4, scipy-openblas, one thread)
CAL_REF_S = 29e-3

END_TO_END = [("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("near_focus_s", "s"), ("far_field_s", "s")]


class SetupError(Exception):
    """The benchmark cannot run here (no package source, probe failed)."""


def pin_threads():
    """Pin BLAS/OpenMP pools and the process to one CPU; must run before
    numpy is imported.

    Each vCPU of the machine the bounds were set on changes speed on its
    own, so the calibration only tracks the speed of the CPU it runs on.
    Child processes inherit the pinning.
    """
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def package_init():
    init = os.path.join(SRC, "wavecorr", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no package source at {init}")
    return init


def import_package():
    """Import wavecorr from this checkout's src/, and nothing else."""
    init = package_init()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import wavecorr
    if os.path.realpath(wavecorr.__file__) != os.path.realpath(init):
        raise SetupError(f"imported wavecorr from {wavecorr.__file__}")
    import warnings
    warnings.simplefilter("ignore", wavecorr.EqualPathWarning)
    return wavecorr


def calibration_unit():
    """A fixed unit of the work the workloads do most, about 30 ms.

    A block of complex exponentials summed against a vector, as in
    chirp_sum's numpy backend, and complex gemms, as in the 2D and
    ensemble engines. It uses no wavecorr code, so no change to the
    package can move it, and it allocates nothing, so the state of the
    process's heap cannot either. It is long enough to average the
    machine's speed over several of its 50 ms switches.
    """
    import numpy as np
    x_out = np.linspace(-1.0, 1.0, 128)[:, None]
    x_in = np.linspace(-1.0, 1.0, 4096)[None, :]
    coeffs = np.exp(1j * x_in[0])
    u = np.empty((128, 4096))
    z = np.zeros((128, 4096), dtype=np.complex128)
    sums = np.empty(128, dtype=np.complex128)
    a = np.exp(1j * np.linspace(0.0, 1.0, 192 * 192)).reshape(192, 192)
    b = np.empty_like(a)

    def unit():
        np.subtract(x_out, x_in, out=u)
        np.multiply(u, u, out=u)
        np.multiply(u, 50.0, out=u)
        z.real = 0.0
        z.imag = u
        np.exp(z, out=z)
        np.matmul(z, coeffs, out=sums)
        for _ in range(4):
            np.matmul(a, a, out=b)

    return unit


def calibrate(unit):
    """Seconds one calibration unit takes now."""
    t0 = time.perf_counter()
    unit()
    return time.perf_counter() - t0


def speed_factor(cals):
    """Factor that scales times measured alongside `cals` to the
    reference speed.

    On the machine the bounds were set on, each vCPU switches between a
    fast and a slow state (1.6x apart) every 50 ms to a few seconds, and
    the share of time in each drifts over minutes; all the work here
    slows together. The timed phase's times are scaled by the reference
    over the mean calibration time sampled between its ops, i.e. by the
    average speed the phase saw; set-up times likewise by the
    calibrations between the set-up probes.
    """
    return CAL_REF_S / statistics.fmean(cals)


def setup_probe(args):
    """What setup_s measures: import, input generation, one warm-up op."""
    import_package()
    import workloads
    wl = workloads.BUILDERS[args.workload](args.seed, tiny=args.tiny)
    try:
        wl.warmup.run()
    except Exception:  # a failing op is counted in the timed run, not here
        pass
    finally:
        if wl.cleanup:
            wl.cleanup()


def _child(args, *extra):
    cmd = [sys.executable, os.path.abspath(__file__), *extra,
           "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + (["--tiny"] if args.tiny else [])


def measure_setup(args, unit):
    """Unscaled set-up times of fresh processes, and the calibrations
    taken between them."""
    cmd = _child(args, "--setup-probe")
    raw, cals = [], [calibrate(unit)]
    for _ in range(2 if args.tiny else SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        raw.append(time.perf_counter() - t0)
        cals.append(calibrate(unit))
        if proc.returncode != 0:
            raise SetupError("set-up probe failed:\n" + proc.stderr[-2000:])
    return {"raw_s": raw, "calibrations_s": cals}


def write_references(args):
    """Compute the workload's oracle references into one .npz file."""
    import numpy as np
    import_package()
    import workloads
    wl = workloads.BUILDERS[args.workload](args.seed, tiny=args.tiny)
    np.savez(args.references, **{k: np.asarray(fn())
                                 for k, fn in wl.references.items()})


def load_references(args):
    """Run `write_references` in a child process, then load its file."""
    import numpy as np
    import workloads
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR, f"references-{os.getpid()}.npz")
    try:
        proc = subprocess.run(_child(args, "--references", path), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupError("references failed:\n" + proc.stderr[-2000:])
        with np.load(path) as data:
            return {key: data[key] for key in data.files}
    finally:
        if os.path.exists(path):
            os.remove(path)


def machine(wavecorr, args, tolerances):
    import platform
    from importlib import metadata

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = "unknown"
    return {
        "nproc": NPROC, "blas": blas, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "kernel_backend": wavecorr.kernel_backend,
        "git_commit": git_commit(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "tolerances": tolerances,
    }


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run_op(op, refs, tracer, op_id, unit):
    """Time one op, calibrate, then gate it.

    Returns (seconds, calibration after, error class or None, gate
    errors, digest). With a tracer, spans are recorded for the op.
    """
    if tracer is not None:
        tracer.install()
        tracer.op = op_id
    try:
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # recorded per op, never dropped
            out, error = None, type(exc).__name__
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.op = None
            tracer.restore()
    cal = calibrate(unit)
    if error is not None:
        return elapsed, cal, error, {}, None
    try:
        passed, errors, dig = op.check(out, refs)
    except Exception as exc:  # malformed output fails its gate
        return elapsed, cal, f"GateFailure({type(exc).__name__})", {}, None
    return elapsed, cal, None if passed else "GateFailure", errors, dig


def run_passes(wl, refs, seconds, tracer, unit):
    """Complete passes over the ops until `seconds` have elapsed.

    The calibration unit is timed after every op. With a tracer every op
    runs twice in a row, once traced and once not, in alternating order
    from pass to pass, so the paired times give the tracing overhead
    under the same machine load. Times are unscaled. Returns (passes, op
    records).
    """
    records = [{"name": op.name, "near": op.near, "times": [],
                "traced_times": [], "failures": {}, "worst": {},
                "digests": []} for op in wl.ops]
    passes = []
    start = time.perf_counter()
    while True:
        if tracer is None:
            order = (False,)
        else:
            order = (False, True) if len(passes) % 2 == 0 else (True, False)
        times, cals = {False: [], True: []}, []
        for i, op in enumerate(wl.ops):
            rec = records[i]
            for traced in order:
                elapsed, cal, error, errors, dig = _run_op(
                    op, refs, tracer if traced else None, (len(passes), i),
                    unit)
                times[traced].append(elapsed)
                cals.append(cal)
                rec["traced_times" if traced else "times"].append(elapsed)
                for key, value in errors.items():
                    rec["worst"][key] = max(rec["worst"].get(key, 0.0),
                                            float(value))
                if dig is not None and dig not in rec["digests"]:
                    rec["digests"].append(dig)
                if error is not None:
                    rec["failures"][error] = rec["failures"].get(error, 0) + 1
        untraced = times[False]
        passes.append({
            "time": sum(untraced), "traced_time": sum(times[True]),
            "near": sum(t for t, op in zip(untraced, wl.ops) if op.near),
            "far": sum(t for t, op in zip(untraced, wl.ops) if not op.near),
            "op_times": untraced, "calibrations_s": cals,
        })
        if time.perf_counter() - start >= seconds:
            return passes, records


def end_to_end(wl, passes, setup):
    """End-to-end metrics, times scaled to the reference speed."""
    import resource

    import numpy as np
    run = speed_factor([c for p in passes for c in p["calibrations_s"]])
    op_times = [run * t for p in passes for t in p["op_times"]]
    n = len(op_times)
    tail = wl.tail_percentile
    beyond = sum(t > np.percentile(op_times, tail) for t in op_times)
    setup_s = [speed_factor(setup["calibrations_s"]) * t
               for t in setup["raw_s"]]
    metrics = {
        "wall_s": run * statistics.median(p["time"] for p in passes),
        "op_p50_s": float(np.percentile(op_times, 50)),
        "op_tail_s": float(np.percentile(op_times, tail)),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "near_focus_s": run * statistics.median(p["near"] for p in passes),
        "far_field_s": run * statistics.median(p["far"] for p in passes),
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes of {len(wl.ops)} ops, "
                  f"x{run:.4f} to reference speed",
        "op_p50_s": f"median of {n} ops",
        "op_tail_s": f"p{tail:g} of {n} ops, {beyond} beyond"
                     + ("" if beyond >= 10 else " (fewer than 10)"),
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_s),
        "near_focus_s": "ops with lam|Z_eff| <= N dx^2, median per pass",
        "far_field_s": "the other ops, median per pass",
    }
    return metrics, notes


def per_layer(passes, tracer):
    """Per-layer metrics; all times unscaled."""
    import tracing
    metrics = tracing.layer_metrics(tracer.spans)
    # per pass, so the numbers do not depend on how many passes ran
    for key in metrics:
        if not key.endswith(("_frac", "_per_s")):
            metrics[key] /= len(passes)
    traced = sum(p["traced_time"] for p in passes)
    untraced = sum(p["time"] for p in passes)
    top = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    metrics.update({
        "trace.wall_s": statistics.median(p["traced_time"] for p in passes),
        "trace.overhead_s": (traced - untraced) / len(passes),
        "trace.overhead_frac": (traced - untraced) / untraced,
        "trace.coverage": top / traced,
    })
    return metrics


def write_spans(path, tracer):
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op",
                              "error", "counts"],
                   "spans": [[s.name, s.start, s.end, s.parent, s.op,
                              s.error, s.counts] for s in tracer.spans]}, fh)


def run_workload(args):
    package_init()
    wavecorr = import_package()
    import oracles
    import tracing
    import workloads
    unit = calibration_unit()
    setup = None if args.trace else measure_setup(args, unit)
    refs = load_references(args)
    wl = workloads.BUILDERS[args.workload](args.seed, tiny=args.tiny)
    try:
        try:
            wl.warmup.run()
        except Exception:  # the same op fails again, counted, when timed
            pass
        tracer = tracing.Tracer() if args.trace else None
        passes, records = run_passes(wl, refs, args.seconds, tracer, unit)
    finally:
        if wl.cleanup:
            wl.cleanup()

    attempted = sum(len(r["times"]) + len(r["traced_times"]) for r in records)
    failed = sum(sum(r["failures"].values()) for r in records)
    failures = {}
    for r in records:
        for cls, count in r["failures"].items():
            failures[cls] = failures.get(cls, 0) + count
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    stem = os.path.join(workloads.OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cal = statistics.fmean(c for p in passes for c in p["calibrations_s"])
    record = {"machine": machine(wavecorr, args, oracles.TOLERANCES),
              "inputs": wl.inputs, "passes": passes, "ops": records,
              "failures": failures, "calibration_ref_s": CAL_REF_S,
              "setup": setup, "scipy_loaded": "scipy" in sys.modules}
    if args.trace:
        metrics = per_layer(passes, tracer)
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        notes = {}
        record["missing_wrappers"] = tracer.missing
        write_spans(stem + "-spans.json", tracer)
    else:
        metrics, notes = end_to_end(wl, passes, setup)
        units = dict(END_TO_END)
    record["metrics"] = metrics
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    m = record["machine"]
    print(f"# {args.workload} seed={args.seed} backend={m['kernel_backend']} "
          f"nproc={m['nproc']} blas={m['blas']} threads={m['blas_threads']} "
          f"python={m['python']} numpy={m['numpy']} commit={m['git_commit']}")
    print(f"# calibration unit: mean {cal * 1e3:.4f} ms against "
          f"{CAL_REF_S * 1e3:.4f} ms reference; end-to-end times are scaled "
          f"by their ratio, per-layer times are not")
    if args.trace and tracer.missing:
        print(f"# missing wrappers, these layers read 0: {tracer.missing}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:48s} {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    print(f"{'failed_frac':48s} {failed / attempted:.6g} ratio  "
          f"({failed}/{attempted} ops; by class: {failures or 'none'})")
    print(f"# record: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a fresh process; a summary table at the end."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr[-2000:], file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(f"\n{'metric':48s} " + " ".join(f"{w:>16s}" for w in WORKLOADS))
    for metric, first in results[WORKLOADS[0]]["metrics"].items():
        cells = [f"{results[w]['metrics'][metric]['value']:16.6g}"
                 for w in WORKLOADS]
        print(f"{metric + ' [' + first['unit'] + ']':48s} " + " ".join(cells))
    cells = [f"{r['failed'] / r['attempted']:16.6g}" for r in results.values()]
    print(f"{'failed_frac [ratio]':48s} " + " ".join(cells))
    print(json.dumps(results))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes, seconds to run")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--references", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    try:
        if args.setup_probe:
            setup_probe(args)
            return 0
        if args.references:
            write_references(args)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
