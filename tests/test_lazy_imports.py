"""Start-up loads only what the command runs.

``import blockortho`` binds no library module: each public name resolves on
first access.  The CLI imports each command's modules when the command
runs.  Each case runs in a fresh interpreter with ``PYTHONPATH=src`` and
lists the ``blockortho.`` modules in ``sys.modules`` afterwards.
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
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = blockortho.cli.main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("blockortho."))]))
"""


def _fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def _loaded(argv, expect_code=0):
    code, loaded = json.loads(_fresh(DRIVER, json.dumps(argv)))
    assert code == expect_code
    return {name.removeprefix("blockortho.") for name in loaded}


def test_the_bare_import_loads_only_the_cli_and_what_its_parser_reads():
    assert _loaded(None, None) == {"cli", "errors", "scalars"}


def test_a_usage_error_loads_no_library_module():
    assert _loaded(["table", "--pair", "nope", "--N", "4"], 2) == {"cli", "errors", "scalars"}


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--pair", "hermite", "--N", "8"],
        ["table", "--pair", "laguerre", "--N", "16", "--i", "4", "--normalization", "det"],
    ],
    ids=["table", "table-one-i"],
)
def test_an_exact_table_loads_no_checking_or_zero_code(argv):
    loaded = _loaded(argv)
    assert {"block", "standard", "gso"} <= loaded
    assert not loaded & {"analysis", "verification", "projectors", "multiblock"}


def test_moments_load_no_construction():
    loaded = _loaded(["moments", "--measure", "gamma:1:2", "--max-order", "6"])
    assert "measures" in loaded
    assert not loaded & {"block", "standard", "gso"}


def test_three_subspace_loads_no_verification():
    loaded = _loaded(["three-subspace", "--z12", "1", "--z23", "2", "--z13", "3"])
    assert "multiblock" in loaded
    assert not loaded & {"verification", "analysis"}


def test_every_public_name_resolves_lazily():
    probe = """
import json, sys
import blockortho
before = sorted(m for m in sys.modules if m.startswith("blockortho."))
names = list(blockortho.__all__)
by_attribute = all(getattr(blockortho, name) is not None for name in names)
namespace = {}
exec("from blockortho import *", namespace)
print(json.dumps([before, names, by_attribute, sorted(set(names) - set(namespace)),
                  sorted(set(names) - set(dir(blockortho)))]))
"""
    before, names, by_attribute, missing_star, missing_dir = json.loads(_fresh(probe))
    assert before == []
    assert len(names) == 84 and names == sorted(names)
    assert by_attribute and missing_star == [] and missing_dir == []


def test_the_package_names_resolve_to_their_modules():
    import blockortho
    from blockortho import block, measures

    assert blockortho.build_sbo is block.build_sbo
    assert blockortho.Measure is measures.Measure
    assert blockortho.hermite_pair == (measures.Measure.gaussian(1), measures.Measure.gaussian(2))
    assert blockortho.hermite_pair is blockortho.hermite_pair
    assert blockortho.laguerre_pair(2)[1] == measures.Measure.gamma_weight(2, 2)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        blockortho.nope  # noqa: B018
