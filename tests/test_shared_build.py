import inspect
import re
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockortho import BlockOrthoError, build_sbos, gamma_matrix, standard
from blockortho.cli import main
from test_block import measure_pairs

FIELDS = ("gamma_dets", "monic_polys", "monic_norms", "p_in_q", "q_in_p", "scale")


def _bits(value):
    """Exact scalars as they are, floats as their bit patterns, recursively."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if hasattr(value, "coeffs"):
        return _bits(value.coeffs)
    return value


def _one_index(pair, i, n_size, backend):
    try:
        return build_sbos(*pair, [i], n_size, backend=backend)[i]
    except BlockOrthoError as exc:
        return exc


@given(measure_pairs(), st.integers(1, 10), st.sampled_from(["exact", "float"]))
@settings(max_examples=100, deadline=None)
def test_shared_build_matches_one_index_builds(pair, n_size, backend):
    singles = {i: _one_index(pair, i, n_size, backend) for i in range(n_size + 1)}
    failed = [b for b in singles.values() if isinstance(b, BlockOrthoError)]
    if failed:
        # the shared build runs the second stages in order and stops at the first failure
        with pytest.raises(type(failed[0]), match=re.escape(str(failed[0]))):
            build_sbos(*pair, range(n_size + 1), n_size, backend=backend)
        return
    shared = build_sbos(*pair, range(n_size + 1), n_size, backend=backend)
    assert list(shared) == list(range(n_size + 1))
    for i, single in singles.items():
        basis = shared[i]
        assert _bits(basis.gamma.rows()) == _bits(single.gamma.rows())
        assert _bits(basis.gamma.rows()) == _bits(gamma_matrix(basis.q_basis, basis.mu2, i).rows())
        for field in FIELDS:
            assert _bits(getattr(basis, field)) == _bits(getattr(single, field)), (i, field)


@pytest.fixture
def first_stages(monkeypatch):
    """Measures of the checked ``build_standard`` calls, seen through every binding."""
    original = standard.build_standard
    signature = inspect.signature(original)
    calls = []

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["check"]:
            calls.append(bound.arguments["measure"])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("blockortho") and getattr(module, "build_standard", None) is original:
            monkeypatch.setattr(module, "build_standard", counting)
    return calls


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["table", "--pair", "laguerre", "--N", "8"], 1),
        (["roots", "--pair", "hermite", "--N", "8"], 1),
        (["verify", "--pair", "hermite", "--N", "8", "--checks", "orthogonality"], 1),
        (["verify", "--pair", "hermite", "--N", "8", "--checks", "zeros"], 1),
        (["verify", "--pair", "hermite", "--N", "8", "--checks", "parity"], 1),
        (["verify", "--pair", "hermite", "--N", "8", "--checks", "projectors"], 1),
        (["verify", "--pair", "laguerre", "--N", "8", "--checks", "integral_representations"], 1),
        # the axis identities also need the second measure's own polynomials
        (["verify", "--pair", "hermite", "--N", "8", "--checks", "boundary_identities"], 2),
    ],
)
def test_one_first_stage_per_op(first_stages, capsys, argv, expected):
    assert main(argv) == 0
    capsys.readouterr()
    assert len(first_stages) == expected
