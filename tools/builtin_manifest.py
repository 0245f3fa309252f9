#!/usr/bin/env python3
"""Pin the nine builtins' output files within a stated tolerance.

    python tools/builtin_manifest.py --write
    python tools/builtin_manifest.py --check DIR

--write runs the nine builtins into a temporary directory and rewrites
tools/builtin_manifest.json from their files. --check reads the files
that `wavecorr run-builtin NAME --out DIR` wrote for every builtin,
prints each one that is off the manifest, and exits 1 if any is.

For each CSV column the manifest holds its peak |value| and every
ROW_STEP-th row, which must read within TOLERANCE of that peak; for the
PGM image, the grey levels on every PGM_STEP-th row and column, which
must read within one level. The sha256 of each file is kept for
information: --check names the files whose bits moved within tolerance.

fig3_incoherent's sampled columns are pinned through their expectation
(`expectation`), the run at n = infinity on its own nodes, which takes
no QR and no draw. The manifest holds the expectation's columns, and
the sample must lie within Z_MAX standard errors of them on every row:
its bits move with the LAPACK build, as the QR of the object arm's
matrix turns. Its x_m and sum columns are exact and pinned as the rest.
"""

import argparse
import hashlib
import json
import os
import re
import sys
import tempfile

import numpy as np

from wavecorr import builtin_scenarios, ensemble, read_pgm, scenario

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "builtin_manifest.json")
#: a change of rounding alone has moved a builtin column by at most
#: 1.24e-14 of its peak
TOLERANCE = 1e-12
ROW_STEP = 64
PGM_STEP = 16
#: a calibrated sample passes a point beyond 6 standard errors with
#: probability exp(-36) = 2.3e-16
Z_MAX = 6.0


def expectation(config):
    """(mean, intensity_o, intensity_r) of an ensemble run at n =
    infinity on its own nodes: what a run of config scatters about,
    with no QR and no draw.

    E[S] = 2 n I, so E[G] = 2 n conj(B) with B = sigma t * h1, and the
    mean's expectation is rowsum(H2 * conj(plan(2 sigma scale
    conj(B)))^T). The object intensity is 2 rowsum |H2 B|^2.
    """
    mats = ensemble.propagation_matrices(config)
    plan, scale = ensemble._reference_arm(config)
    sigma = ensemble._sigma(config)
    b = (sigma * mats.t_object)[:, None] * mats.source_to_object
    e_rb = plan(2.0 * sigma * scale * np.conjugate(b))
    mean = np.einsum("jm,mj->j", mats.object_to_detector,
                     np.conjugate(e_rb))
    a_o = mats.object_to_detector @ b
    i_o = 2.0 * (a_o.real ** 2 + a_o.imag ** 2).sum(axis=1)
    i_r = np.full(i_o.shape, 2.0 * sigma ** 2
                  * config.source_grid.n_samples * abs(scale) ** 2)
    return mean, i_o, i_r


def sampled_columns():
    """file -> column -> (expectation, standard error) of
    fig3_incoherent's sampled columns; abs2's standard error is that of
    sqrt(abs2).

    Each column lies at most |mean - E| from its expectation, in units
    of its standard error, so |z| < Z_MAX holds for each column where it
    holds for the complex mean.
    """
    config = next(c for c in builtin_scenarios()
                  if c.name == "fig3_incoherent")
    econfig = scenario._setup(config)[2]
    mean, i_o, i_r = expectation(econfig)
    se = np.sqrt(i_o * i_r / econfig.n_realizations)
    re, bg = mean.real, i_o + i_r
    return {
        "fig3_incoherent_correlation.csv": {
            "re": (re, se), "im": (mean.imag, se),
            "abs2": (re ** 2 + mean.imag ** 2, se)},
        "fig3_incoherent_ports.csv": {
            "i_plus": (bg / 2 + re, se), "i_minus": (bg / 2 - re, se),
            "diff": (2.0 * re, 2.0 * se)},
    }


def _columns(path):
    """{name: values} of the columns of a CSV the builtins write."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(header, table.T))


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def build(out_dir):
    """The manifest of the builtin files in out_dir."""
    sampled = sampled_columns()
    files = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        entry = files[name] = {"sha256": _sha256(path)}
        if name.endswith(".pgm"):
            levels = read_pgm(path)
            entry["shape"] = list(levels.shape)
            entry["levels"] = levels[::PGM_STEP, ::PGM_STEP].tolist()
            continue
        columns = _columns(path)
        entry["rows"] = len(next(iter(columns.values())))
        entry["columns"] = {}
        for col, values in columns.items():
            values = sampled.get(name, {}).get(col, (values,))[0]
            entry["columns"][col] = {"peak": float(np.abs(values).max()),
                                     "rows": values[::ROW_STEP].tolist()}
    return {"tolerance": TOLERANCE, "row_step": ROW_STEP,
            "pgm_step": PGM_STEP, "z_max": Z_MAX, "files": files}


def check(out_dir):
    """(failures, moved) of the builtin files in out_dir against the
    committed manifest: a line for each file or column off it, and the
    names of the files whose bits moved."""
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    step, pgm_step = manifest["row_step"], manifest["pgm_step"]
    sampled = sampled_columns()
    failures, moved = [], []
    for name in sorted(set(os.listdir(out_dir)) - set(manifest["files"])):
        failures.append(f"{name}: not in the manifest")
    for name, entry in manifest["files"].items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            failures.append(f"{name}: missing")
            continue
        if _sha256(path) != entry["sha256"]:
            moved.append(name)
        if "levels" in entry:
            levels = read_pgm(path)
            if list(levels.shape) != entry["shape"]:
                failures.append(f"{name}: shape {levels.shape}")
                continue
            off = np.abs(levels[::pgm_step, ::pgm_step].astype(int)
                         - entry["levels"]).max()
            if off > 1:
                failures.append(f"{name}: {off} grey levels off")
            continue
        columns = _columns(path)
        rows = len(next(iter(columns.values())))
        if list(columns) != list(entry["columns"]) or rows != entry["rows"]:
            failures.append(f"{name}: columns {list(columns)}, {rows} rows")
            continue
        for col, pin in entry["columns"].items():
            got = columns[col]
            want, se = sampled.get(name, {}).get(col, (got, None))
            allowed = manifest["tolerance"] * pin["peak"]
            off = max(abs(np.abs(want).max() - pin["peak"]),
                      np.abs(want[::step] - pin["rows"]).max())
            if not off <= allowed:
                failures.append(f"{name} {col}: {off:.3g} off its pins, "
                                f"{allowed:.3g} allowed")
            if se is None:
                continue
            if col == "abs2":
                got, want = np.sqrt(got), np.sqrt(want)
            z = (np.abs(got - want) / se).max()
            if not z < manifest["z_max"]:
                failures.append(f"{name} {col}: {z:.3g} standard errors "
                                "from its expectation")
    return failures, moved


def _dumps(manifest):
    """The manifest as JSON, each list of numbers on one line."""
    return re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(manifest, indent=1)) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Pin the nine builtins' output files.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="run the builtins and rewrite the manifest")
    mode.add_argument("--check", metavar="DIR",
                      help="check the builtin files in DIR against it")
    args = parser.parse_args(argv)
    if args.write:
        with tempfile.TemporaryDirectory() as out:
            for config in builtin_scenarios():
                scenario.run_scenario(config, out_dir=out,
                                      echo=lambda line: None)
            text = _dumps(build(out))
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {MANIFEST}")
        return 0
    failures, moved = check(args.check)
    for name in moved:
        print(f"{name}: sha256 differs from the manifest's")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
