"""Byte-exact golden outputs of exact-backend CLI commands.

Every case replays one argv through ``cli.main`` and compares stdout with
``tests/golden/<name>.out`` byte for byte, so a refactor that changes any
exact output fails here.  Regenerate the files (only when an output change
is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import pathlib
import sys

import pytest

from blockortho.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = GOLDEN.parent.parent
# a moment table no closed form covers: 1/2 gaussian:1 + 1/2 gamma:2:3/2
# through order 14; paths, and the measure labels that carry them, are
# relative to the repository root
MIXTURE = "tests/golden/mixture-moments.csv"

CASES = {}
for _pair in ("hermite", "laguerre"):
    for _norm in ("monic", "det"):
        CASES[f"table-{_pair}-N6-{_norm}"] = [
            "table", "--pair", _pair, "--N", "6", "--normalization", _norm,
        ]
    CASES[f"verify-{_pair}-N6"] = ["verify", "--pair", _pair, "--N", "6"]
    CASES[f"roots-{_pair}-N6"] = ["roots", "--pair", _pair, "--N", "6"]
    for _route in ("q", "second"):
        CASES[f"projector-{_pair}-N6-i2-{_route}"] = [
            "projector", "--pair", _pair, "--N", "6", "--i", "2", "--route", _route,
        ]
CASES["table-laguerre-z3_2-N8-i3"] = [
    "table", "--pair", "laguerre", "--z", "3/2", "--N", "8", "--i", "3",
]
CASES["three-subspace-unique"] = ["three-subspace", "--z12", "1", "--z23", "2", "--z13", "3"]
CASES["three-subspace-family"] = ["three-subspace", "--symmetric12", "--z23", "3", "--z13", "4"]
CASES["moments-gamma-1-2"] = ["moments", "--measure", "gamma:1:2", "--max-order", "8"]
# rational alpha and z with denominators other than one
CASES["table-gamma-2_3-5_2-z3_2-N8-det"] = [
    "table", "--measure1", "gamma:2/3:3/2", "--measure2", "gamma:5/2:3/2", "--N", "8",
    "--normalization", "det",
]
CASES["table-gaussian-3_2-2_3-N8-det"] = [
    "table", "--measure1", "gaussian:3/2", "--measure2", "gaussian:2/3", "--N", "8",
    "--normalization", "det",
]
# benchmark sizes: the one-i tables reach N 16 and the whole tables N 10
CASES["table-gaussian-2_3-5_2-N16-i4"] = [
    "table", "--measure1", "gaussian:2/3", "--measure2", "gaussian:5/2", "--N", "16", "--i", "4",
]
CASES["table-gamma-3_2-1_2-z3_2-N16-i12-det"] = [
    "table", "--measure1", "gamma:3/2:3/2", "--measure2", "gamma:1/2:3/2", "--N", "16",
    "--i", "12", "--normalization", "det",
]
CASES["table-gamma-2_3-5_2-z3_2-N10-det"] = [
    "table", "--measure1", "gamma:2/3:3/2", "--measure2", "gamma:5/2:3/2", "--N", "10",
    "--normalization", "det",
]
CASES["verify-gamma-1-5_2-z3_2-N8-orthogonality"] = [
    "verify", "--measure1", "gamma:1:3/2", "--measure2", "gamma:5/2:3/2", "--N", "8",
    "--checks", "orthogonality",
]
CASES["moments-gaussian-2_3"] = ["moments", "--measure", "gaussian:2/3", "--max-order", "12"]
CASES["moments-gamma-3_2-5_2"] = ["moments", "--measure", "gamma:3/2:5/2", "--max-order", "12"]
CASES["table-moments-file-mixture-N8-det"] = [
    "table", "--moments-file", MIXTURE, "--measure2", "gaussian:2", "--N", "8",
    "--normalization", "det",
]
CASES["table-moments-file-mixture-second-N8-det"] = [
    "table", "--measure1", "gaussian:2", "--measure2", f"file:{MIXTURE}", "--N", "8",
    "--normalization", "det",
]


def _run(argv):
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = _run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.out").write_text(out)
        print(f"wrote {name}.out ({len(out)} bytes)")
