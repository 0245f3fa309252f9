"""Fuzzed inputs reach the user only as documented outcomes.

`read_pgm` on any bytes returns a 2D uint8 map or raises
InvalidArgumentError. `wavecorr run` on a small config with some leaves
replaced by odd JSON values (NaN, +-Infinity, strings, booleans, null,
lists, objects) returns one of the documented exit codes 0, 2, 3, 4 and
never lets an exception escape. The swapped-in values contain no finite
numbers, so no grid or ensemble grows; `grid.n_samples` is also drawn
from far above the node cap, or `ensemble.n_realizations` from far above
its cap, and such a config must exit 3 at validation, before anything is
allocated or drawn.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from wavecorr import read_pgm
from wavecorr.cli import main
from wavecorr.errors import InvalidArgumentError
from wavecorr.scenario import MAX_REALIZATIONS

IMAGING_Z_O1 = 0.183 + 0.155 / 1.5163
TOTAL_Z = 0.183 + 1.5163 * 0.155


def _config(obj, outputs, mode="analytic", **extra):
    d = {
        "name": "fuzz",
        "mode": mode,
        "wavelength": 589.3e-9,
        "z_o1": 0.242,
        "z_o2": TOTAL_Z - 0.242,
        "reference_segments": [{"length": 0.183, "index": 1.0},
                               {"length": 0.155, "index": 1.5163}],
        "object": obj,
        "grid": {"half_width": 0.5e-3, "n_samples": 64, "center": 0.0},
        "source": {"intensity": 1.0, "width": 0.01},
        "outputs": outputs,
    }
    d.update(extra)
    return d


CSV_OUT = [{"kind": "correlation_csv", "path": "c.csv"}]
BASES = [
    _config({"kind": "double_slit", "b": 125e-6, "d": 300e-6},
            CSV_OUT + [{"kind": "ports_csv", "path": "p.csv"}]),
    _config({"kind": "phase_holes", "hole_width": 200e-6,
             "separation": 500e-6, "phase_shift": math.pi}, CSV_OUT),
    _config({"kind": "raster", "pitch": 60e-6,
             "pixels": [[0, 255, 0], [255, 128, 255]]},
            [{"kind": "image_pgm", "path": "i.pgm"}],
            z_o1=IMAGING_Z_O1, z_o2=TOTAL_Z - IMAGING_Z_O1),
    _config({"kind": "uniform", "value": [0.5, -0.5]},
            [{"kind": "ports_csv", "path": "p.csv"}], mode="coherent",
            coherent={"source": "plane_wave"}),
    _config({"kind": "double_slit", "b": 125e-6, "d": 300e-6}, CSV_OUT,
            mode="ensemble", ensemble={"n_realizations": 4, "seed": 3}),
]


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))
    else:
        yield path


# strings: config keywords, so a swap can stay valid and run, plus short
# words with no path separator or dot, so an output never leaves its dir
_TEXT = st.one_of(
    st.sampled_from(["analytic", "ensemble", "coherent", "raster",
                     "uniform", "double_slit", "phase_holes", "pinhole",
                     "image_pgm", "ports_csv", "correlation_csv"]),
    st.text(alphabet="abz_", max_size=4))
_SCALARS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                     _TEXT, st.booleans(), st.none())
JSON_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(_TEXT, kids, max_size=3),
    max_leaves=5)


@st.composite
def fuzzed_configs(draw):
    oversized = draw(st.sampled_from([None, None, "grid", "ensemble"]))
    # an oversized ensemble goes into the ensemble base, where the cap
    # is the rule it meets
    cfg = copy.deepcopy(BASES[-1] if oversized == "ensemble"
                        else draw(st.sampled_from(BASES)))
    paths = list(_leaf_paths(cfg))
    chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3,
                           unique=True))
    for path in chosen:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(JSON_VALUES)
    if oversized == "grid":
        cfg["grid"]["n_samples"] = draw(st.integers(10 ** 7, 10 ** 18))
    elif oversized == "ensemble":
        cfg["ensemble"]["n_realizations"] = draw(
            st.integers(MAX_REALIZATIONS + 1, 10 ** 18))
    return cfg, oversized is not None


# about half the draws are oversized, so 300 keeps ~150 that can run
@settings(deadline=None, max_examples=300, derandomize=True)
@given(fuzzed_configs())
def test_fuzzed_config_exits_with_a_documented_code(case):
    cfg, oversized = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "fuzz.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main(["run", cfg_path, "--out", os.path.join(tmp, "out")])
    assert code in ((3,) if oversized else (0, 2, 3, 4)), sink.getvalue()


_PGM_PREFIXES = st.sampled_from([
    b"", b"P5", b"P5\n", b"P5 2 2 255\n", b"P5\n# note\n3 1\n255\n",
    b"P5\n2 1\n", b"P2 1 1 255\n", b"P5 0 1 255\n"])


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.one_of(st.binary(max_size=32),
                 st.tuples(_PGM_PREFIXES, st.binary(max_size=16))
                 .map(lambda parts: parts[0] + parts[1])))
def test_read_pgm_returns_a_map_or_raises_invalid_argument(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.pgm")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            img = read_pgm(path)
        except InvalidArgumentError:
            return
    assert isinstance(img, np.ndarray)
    assert img.ndim == 2 and img.dtype == np.uint8
    assert img.size > 0
