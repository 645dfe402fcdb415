"""Exact commands never execute numpy; float ones do.

Each case runs in a fresh interpreter with ``PYTHONPATH=src`` and then
lists the ``numpy.`` submodules in ``sys.modules``.  Executing numpy's
``__init__`` imports its submodules, so an empty list shows that numpy was
never executed, whatever mechanism deferred it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

DRIVER = """
import contextlib, io, json, sys
import blockortho, blockortho.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = blockortho.cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("numpy."))]))
"""


def _numpy_submodules(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", DRIVER, json.dumps(argv)], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, loaded = json.loads(out)
    assert code in (None, 0)
    return loaded


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["table", "--pair", "hermite", "--N", "8", "--normalization", "det"],
        ["table", "--pair", "laguerre", "--N", "16", "--i", "4", "--normalization", "det"],
        ["moments", "--measure", "gamma:1:2", "--max-order", "6"],
        ["three-subspace", "--z12", "1", "--z23", "2", "--z13", "3"],
        ["verify", "--pair", "laguerre", "--N", "8",
         "--checks", "orthogonality,oracle_equivalence,parity"],
    ],
    ids=["import", "table", "table-one-i", "moments", "three-subspace", "verify"],
)
def test_exact_commands_leave_numpy_unexecuted(argv):
    assert _numpy_submodules(argv) == []


def test_float_roots_execute_numpy():
    argv = ["roots", "--float", "--pair", "laguerre", "--N", "8", "--i", "4"]
    assert _numpy_submodules(argv)
