"""Importing the package loads numpy but not scipy, and scipy.optimize waits
for the first NNLS re-fit of the product-state search.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import raggio_kit

SRC = str(Path(raggio_kit.__file__).resolve().parents[1])

PROBE = """
import contextlib, io, json, sys

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

import raggio_kit
out = {"import": loaded("scipy")}

from raggio_kit import cli
for argv in (
    ["born", "--psi", "[[0.6,0],[0.8,0]]"],
    ["schmidt", "--psi", "[[0,0],[0.7071,0],[-0.7071,0],[0,0]]", "--algebra", "M2 x M2"],
    ["chsh", "--singlet", "--seed", "0"],
    ["separability", "--singlet", "--seed", "0"],
    ["raggio-check", "--a", "M3", "--b", "D4", "--seed", "4", "--samples", "4"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    out[argv[0]] = [code, loaded("scipy.optimize")]

import numpy as np
from raggio_kit import make_full, mixture, product_state, random_mixed, separability_test
rng = np.random.default_rng(3)
parts = [product_state(random_mixed(make_full(2), rng), random_mixed(make_full(3), rng))
         for _ in range(3)]
verdict = separability_test(mixture([0.5, 0.3, 0.2], parts), seed=0)
out["search"] = [verdict.tag, "scipy.optimize" in sys.modules]
print(json.dumps(out))
"""


def test_import_loads_no_scipy_and_only_the_search_loads_scipy_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out.pop("import") == []
    assert out.pop("search") == ["Separable", True]
    assert out == {
        "born": [0, []],
        "schmidt": [0, []],
        "chsh": [0, []],
        "separability": [0, []],
        "raggio-check": [0, []],
    }
