"""Byte-exact golden outputs of exact-backend CLI commands.

Every case replays one argv through ``cli.main`` and compares stdout with
``tests/golden/<name>.out`` byte for byte, so a refactor that changes any
exact output fails here.  Regenerate the files (only when an output change
is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from blockortho.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

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


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
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
