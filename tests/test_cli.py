import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from blockortho import block, cli
from blockortho.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_hermite_block(capsys):
    code, out, _ = run(capsys, "table", "--pair", "hermite", "--N", "5", "--i", "2", "--exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["P_2_4"] == {"coeffs": ["1/8", "0", "-7/4", "0", "1"]}
    assert payload["P_2_2"] == {"coeffs": ["-1/2", "0", "1"]}
    assert payload["Z_2_2"] == "3/16"


def test_table_laguerre_block(capsys):
    code, out, _ = run(capsys, "table", "--pair", "laguerre", "--z", "1", "--N", "3", "--i", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["P_1_2"] == {"coeffs": ["1/2", "-5/2", "1"]}


def test_table_zero_index_is_second_measure_family(capsys):
    code, out, _ = run(capsys, "table", "--pair", "hermite", "--N", "4", "--i", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["P_0_2"] == {"coeffs": ["-1/4", "0", "1"]}


def test_table_deterministic_bytes(capsys):
    _, first, _ = run(capsys, "table", "--pair", "laguerre", "--N", "6")
    _, second, _ = run(capsys, "table", "--pair", "laguerre", "--N", "6")
    assert first == second


def test_table_csv_flatten(capsys):
    code, out, _ = run(capsys, "table", "--pair", "hermite", "--N", "3", "--i", "1", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("P_1_2,") for line in lines)


def test_verify_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--pair", "hermite", "--N", "6",
        "--checks", "boundary_identities,parity,projectors",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {r["check"] for r in payload["reports"]} == {
        "boundary_identities", "parity", "projectors",
    }


@pytest.mark.parametrize("backend", ["--exact", "--float"])
def test_verify_recurrence_skips_equal_measures(capsys, backend):
    # one measure has no obstruction to a three-term recurrence to witness
    code, out, err = run(
        capsys, "verify", "--measure1", "gaussian:1", "--measure2", "gaussian:1",
        "--N", "8", "--checks", "recurrence", backend,
    )
    assert (code, err) == (0, "")
    (report,) = json.loads(out)["reports"]
    assert report["passed"] is True
    assert "distinct measures" in report["skipped"]


def test_verify_recurrence_still_witnesses_distinct_measures(capsys):
    code, out, _ = run(
        capsys, "verify", "--pair", "hermite", "--N", "8", "--checks", "recurrence",
    )
    assert code == 0
    assert json.loads(out)["reports"] == [{"check": "recurrence", "n": 8, "passed": True}]


def test_verify_corrupted_moment_table(tmp_path, capsys):
    # a moment table that is not positive definite cannot define a measure
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1,2\n2,1\n3,0\n4,5\n")
    code, out, err = run(
        capsys, "verify", "--moments-file", str(bad), "--measure2", "gamma:2:1",
        "--N", "3", "--checks", "orthogonality",
    )
    assert code == 1
    assert "NotPositiveDefinite" in json.loads(err)["kind"]


def test_verify_float_conditioning_guard_skips(capsys):
    code, out, _ = run(
        capsys, "verify", "--pair", "hermite", "--N", "25", "--float",
        "--checks", "orthogonality",
    )
    assert code == 0
    payload = json.loads(out)
    entry = payload["reports"][0]
    assert entry["passed"] is True
    assert "skipped" in entry and "20" in entry["skipped"]


def test_verify_skips_the_integrals_of_a_collapsed_gauss_rule(capsys):
    # at z = 1e-400 the float 3-node Gauss rules have weights 1, 0, 0
    code, out, _ = run(
        capsys, "verify", "--measure1", "gamma:1:1e-400", "--measure2", "gamma:2:1e-400",
        "--N", "3", "--checks", "integral_representations",
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["passed"] is True
    assert "quadrature weights must be positive" in report["skipped"]


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def test_error_line_carries_the_gate_measurement(capsys):
    code, out, err = run(capsys, "table", "--float", "--pair", "laguerre", "--N", "20", "--i", "2")
    assert (code, out) == (1, "")
    error = _strict_json(err)
    assert set(error) == {"error", "kind", "stage", "condition", "limit"}
    assert (error["kind"], error["stage"], error["limit"]) == (
        "ConditioningError", "second_stage", 1e-9,
    )
    assert error["condition"] > error["limit"]
    assert f"{error['condition']:.3g}" in error["error"]


def test_error_line_prints_an_infinite_condition_as_a_string(capsys, monkeypatch):
    monkeypatch.setattr(block, "connection_condition", lambda connection, norms: math.inf)
    code, out, err = run(capsys, "table", "--float", "--pair", "hermite", "--N", "4", "--i", "0")
    assert (code, out) == (1, "")
    assert "Infinity" not in err
    assert _strict_json(err)["condition"] == "inf"


def test_error_line_names_the_moments_stage(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1,2\n2,1\n")
    code, out, err = run(
        capsys, "table", "--moments-file", str(bad), "--measure2", "gaussian:1", "--N", "2",
    )
    assert (code, out) == (1, "")
    error = _strict_json(err)
    assert (error["kind"], error["stage"], error["degree"]) == ("NotPositiveDefinite", "moments", 1)
    assert "condition" not in error and "limit" not in error


def test_three_subspace_classifications(capsys):
    code, out, _ = run(capsys, "three-subspace", "--z12", "1", "--z23", "2", "--z13", "3")
    assert code == 0
    assert json.loads(out)["classification"] == "Unique"

    code, out, _ = run(capsys, "three-subspace", "--z12", "1", "--z23", "2", "--z13", "4")
    assert code == 0
    assert json.loads(out)["classification"] == "NoSolution"

    code, out, _ = run(capsys, "three-subspace", "--symmetric12", "--z23", "3", "--z13", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "Family(1)"
    assert payload["particular"] == [{"coeffs": ["-20", "0", "1"]}]
    assert payload["kernel"] == [{"coeffs": ["-4", "1"]}]


def test_three_subspace_usage_error(capsys):
    code, _, err = run(capsys, "three-subspace", "--z23", "2", "--z13", "3")
    assert code == 2
    assert "z12" in json.loads(err)["error"]


def test_moments_command(capsys):
    code, out, _ = run(capsys, "moments", "--measure", "gamma:1:1", "--max-order", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == ["1", "1", "2", "6"]
    assert payload["exact"] is True


def test_moments_file_roundtrip(tmp_path, capsys):
    table = tmp_path / "mu.json"
    table.write_text(json.dumps({"c0": "2", "mu": ["1", "0", "1/2", "0", "3/4"]}))
    code, out, _ = run(capsys, "moments", "--moments-file", str(table), "--max-order", "4")
    assert code == 0
    assert json.loads(out)["mu"] == ["1", "0", "1/2", "0", "3/4"]


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "--pair", "laguerre", "--N", "3", "--i", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["roots_1_2"]["count"] == 2
    assert payload["roots_1_2"]["satisfies_theorem"] is True


def test_projector_command_routes_agree(capsys):
    code, out_q, _ = run(capsys, "projector", "--pair", "hermite", "--N", "5", "--i", "1")
    assert code == 0
    code, out_2, _ = run(
        capsys, "projector", "--pair", "hermite", "--N", "5", "--i", "1", "--route", "second"
    )
    assert code == 0
    assert json.loads(out_q)["onto_constraint"] == json.loads(out_2)["onto_constraint"]


def test_bad_measure_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "moments", "--measure", "nope:1", "--max-order", "2")
    assert code == 2
    assert "nope" in json.loads(err)["error"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "table", "--pair", "hermite", "--N", "3", "--i", "0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["P_0_1"] == {"coeffs": ["0", "1"]}


def test_zero_scan_covers_the_wider_second_measure(capsys):
    # the 11th zero of P_{10;11} sits near 24.9, beyond where gamma:3:1 fades
    code, out, _ = run(
        capsys, "roots", "--measure1", "gamma:3:1", "--measure2", "gamma:1:1",
        "--N", "12", "--i", "10",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["roots_10_11"]["count"] == 11
    assert payload["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--pair", "hermite", "--N", "1"],
        ["verify", "--pair", "laguerre", "--N", "1"],
        ["verify", "--pair", "hermite", "--N", "2"],
    ],
)
def test_verify_at_small_n_reports_every_suite(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len({r["check"] for r in reports}) == 10
    inner0 = next(r for r in reports if r["check"] == "inner0")
    assert "skipped" in inner0


@pytest.mark.parametrize(
    "rows", ["0,1\n1,0\n2,nan\n", "0,1.0\n1,0.0\n2,nan\n"], ids=["mixed", "float"]
)
@pytest.mark.parametrize(
    "command",
    [
        ["table", "--measure2", "gaussian:1", "--N", "2", "--i", "0"],
        ["table", "--measure2", "gaussian:1", "--N", "2", "--i", "0", "--float"],
        ["moments", "--max-order", "2"],
    ],
    ids=["table", "table-float", "moments"],
)
def test_non_finite_moment_row_is_rejected(tmp_path, capsys, rows, command):
    table = tmp_path / "nan.csv"
    table.write_text(rows)
    code, out, err = run(capsys, *command, "--moments-file", str(table))
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["kind"] == "MomentError"
    assert "order 2" in error["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--pair", "hermite", "--N", "0"],
        ["roots", "--pair", "hermite", "--N", "-3"],
        ["verify", "--pair", "hermite", "--N", "0"],
        ["projector", "--pair", "hermite", "--N", "0", "--i", "0"],
        ["table", "--measure1", "gaussian:0", "--measure2", "gaussian:1", "--N", "3"],
        ["roots", "--measure1", "gamma:1:1", "--measure2", "gamma:-2:1", "--N", "3"],
        ["table", "--pair", "hermite", "--N", "3", "--exact", "--float"],
        ["projector", "--pair", "hermite", "--N", "3", "--i", "-1", "--route", "second"],
        ["projector", "--pair", "hermite", "--N", "3", "--i", "7", "--route", "second"],
        ["verify", "--pair", "hermite", "--N", "4", "--i-max", "-3", "--checks", "orthogonality"],
    ],
)
def test_bad_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--measure1", "gaussian:1/0", "--measure2", "gaussian:1", "--N", "3"],
        ["table", "--measure1", "gamma:1:1/0", "--measure2", "gaussian:1", "--N", "3"],
        ["table", "--measure1", "gaussian:0/0", "--measure2", "gaussian:1", "--N", "3"],
        ["table", "--pair", "laguerre", "--z", "1/0", "--N", "3"],
        ["three-subspace", "--z12", "1", "--z23", "1/0", "--z13", "3"],
    ],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "zero denominator" in json.loads(err)["error"]


@pytest.mark.parametrize("name, text", [("zero.csv", "0,1\n1,0\n2,1/0\n"),
                                        ("zero.json", '{"mu": ["1", "0", "1/0"]}')],
                         ids=["csv", "json"])
def test_zero_denominator_in_a_moment_file_is_a_usage_error(tmp_path, capsys, name, text):
    table = tmp_path / name
    table.write_text(text)
    code, out, err = run(capsys, "moments", "--max-order", "2", "--moments-file", str(table))
    assert (code, out) == (2, "")
    assert "zero denominator" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--measure1", "gamma:1:200", "--measure2", "gamma:2:200", "--N", "3"],
        ["table", "--pair", "laguerre", "--z", "200", "--N", "3"],
        ["table", "--measure1", "gaussian:1e-400", "--measure2", "gaussian:1", "--N", "3"],
        ["verify", "--measure1", "gamma:1:200", "--measure2", "gamma:2:200", "--N", "3",
         "--checks", "orthogonality"],
    ],
)
def test_exact_builds_need_no_float_c0(capsys, argv):
    # the float formula for c_0 overflows or divides by zero here; no exact build reads c_0
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)


def test_moments_print_a_c0_outside_the_float_range_as_null(capsys):
    code, out, _ = run(capsys, "moments", "--measure", "gamma:1:200", "--max-order", "2")
    assert code == 0
    assert json.loads(out) == {"c0": None, "c0_symbol": "Gamma(200)/1^200", "exact": True,
                               "mu": ["1", "200", "40200"]}
    # Gamma(200) / 200^200 overflows in its factors but not as a whole
    code, out, _ = run(capsys, "moments", "--measure", "gamma:200:200", "--max-order", "1")
    assert math.isclose(json.loads(out)["c0"], math.exp(math.lgamma(200) - 200 * math.log(200)))


@pytest.mark.parametrize("spec", ["gamma:1:200", "gaussian:1e-400", "gaussian:1e400"])
@pytest.mark.parametrize("command", ["table", "verify", "roots", "projector", "moments"])
@pytest.mark.parametrize("backend", ["--exact", "--float"])
def test_extreme_parameters_never_escape_as_tracebacks(capsys, spec, command, backend):
    if command == "moments":
        argv = [command, "--measure", spec, "--max-order", "4"]
        if backend == "--float":
            argv.append("--float")
    else:
        argv = [command, "--measure1", spec, "--measure2", spec.replace(":1", ":2", 1),
                "--N", "3", backend]
        if command == "projector":
            argv += ["--i", "1"]
    code, out, err = run(capsys, *argv)
    if code == 1 and not err:
        assert json.loads(out)["passed"] is False
    elif code:
        assert code in (1, 2)
        assert "kind" in json.loads(err)
    else:
        assert json.loads(out)


GOOD_SPECS = ("gaussian:1", "gaussian:2", "gamma:1:1", "gamma:2:1", "gamma:1/2:3/2")
BAD_SPECS = ("gaussian:0", "gamma:1:-2", "beta:1", "gaussian:1/0")
VALUES = ("0", "1", "2", "3", "-1", "1/2", "1/0")
BUILD_COMMANDS = ("table", "verify", "roots", "projector")


@st.composite
def argvs(draw):
    """Mostly well-formed argvs of every command, some with a stray option."""
    command = draw(st.sampled_from(BUILD_COMMANDS + ("three-subspace", "moments")))
    # about half of each choice is well formed, so most argvs get past parsing
    spec = st.one_of(st.sampled_from(GOOD_SPECS), st.sampled_from(GOOD_SPECS + BAD_SPECS))
    values = st.sampled_from(VALUES)
    if command in BUILD_COMMANDS:
        if draw(st.booleans()):
            options = [["--pair", draw(st.sampled_from(("hermite", "laguerre")))]]
        else:
            options = [["--measure1", draw(spec)], ["--measure2", draw(spec)]]
        options.append(["--N", str(draw(st.one_of(st.integers(1, 5), st.integers(-2, 0))))])
        if command == "projector" or draw(st.booleans()):
            options.append(["--i", str(draw(st.integers(-1, 6)))])
        options += draw(st.sampled_from(([], [["--float"]], [["--exact"]], [["--float"], ["--exact"]])))
    elif command == "three-subspace":
        options = [["--z23", draw(values)], ["--z13", draw(values)]]
        options.append(draw(st.sampled_from((["--z12", draw(values)], ["--symmetric12"]))))
    else:
        options = [["--measure", draw(spec)], ["--max-order", str(draw(st.integers(-1, 5)))]]
        options += draw(st.sampled_from(([], [["--float"]])))
    stray = draw(st.sampled_from((None,) * 5 + (["--N", "2"], ["--exact"], ["--z", "0"], ["--i"])))
    if stray:
        options.append(stray)
    return [command, *(token for group in draw(st.permutations(options)) for token in group)]


@given(argvs())
@settings(max_examples=150, deadline=None)
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1 and not err.getvalue():
        # a check that ran and failed: its report is on stdout
        assert json.loads(out.getvalue())["passed"] is False
    elif code:
        assert isinstance(json.loads(err.getvalue()), dict)


MIXED_ARGVS = (
    ["table", "--pair", "hermite", "--N", "3", "--i", "1"],
    ["table", "--pair", "hermite", "--N", "0"],
    ["table", "--pair", "hermite", "--N", "3", "--i", "1", "--csv"],
    ["roots", "--pair", "laguerre", "--N", "4", "--float"],
    ["roots", "--pair", "hermite"],
    ["table", "--pair", "laguerre", "--N", "3", "--out", "{out}"],
    ["verify", "--pair", "hermite", "--N", "2", "--checks", "zeros"],
    ["table", "--pair", "hermite", "--N", "3", "--exact", "--float"],
    ["projector", "--pair", "hermite", "--N", "3", "--i", "1", "--route", "second"],
    ["frobnicate"],
    [],
    ["three-subspace", "--z12", "1", "--z23", "2", "--z13", "3"],
    ["three-subspace", "--z23", "2", "--z13", "3"],
    ["moments", "--measure", "gamma:1:1", "--max-order", "3", "--csv"],
    ["moments", "--measure", "nope:1", "--max-order", "2"],
    ["verify", "--pair", "nope"],
    ["table", "--pair", "hermite", "--N", "3", "--i", "1"],
    ["roots", "--pair", "laguerre", "--N", "4", "--float", "--csv", "--out", "{out}"],
)


def _run_mixed(out_dir):
    out_dir.mkdir()
    results = []
    for k, argv in enumerate(MIXED_ARGVS):
        target = out_dir / f"{k}.out"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([token.format(out=target) for token in argv])
        written = target.read_text() if target.exists() else None
        results.append((code, out.getvalue(), err.getvalue(), written))
    return results


def test_cached_parser_matches_a_fresh_parser(tmp_path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = _run_mixed(tmp_path / "fresh")
    cli.build_parser.cache_clear()
    cached = _run_mixed(tmp_path / "cached")
    assert cached == fresh
    assert {code for code, *_ in cached} == {0, 2}
    assert sum(written is not None for *_, written in cached) == 2
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(MIXED_ARGVS) - 1)


def test_parser_is_not_built_at_import():
    probe = "import blockortho.cli as c; print(c.build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "0"
