"""Float-backend error table: writes BENCH_float_error.json at the repository root.

For the built-in hermite and laguerre pairs and for every pair of the
benchmark decks (gaussian:A/B and gamma:A:Z/B:Z over the decks' A, B and Z),
at N 4-20 and every constraint index i, it builds the float basis with
checks on and records

* ``exit``: ``ok``, or the error the build raises: ``gated``
  (ConditioningError, the conditioning gate's refusal), ``mismatch``
  (OracleMismatch) or ``indefinite`` (NotPositiveDefinite);
* ``kappa_u``: the gate's measurement, the condition number of the
  diagonally scaled gamma matrix times the unit roundoff;
* ``rel_err``: the largest coefficient error of the unchecked float build
  against the exact backend, relative to each polynomial's largest
  coefficient (null when the unchecked build fails too).

Gated builds are also run with the gate lifted, so ``calibration`` bins every
build of the grid by kappa_u with the outcome it has without the gate and
the largest errors (of all builds and of the admitted ones); that is the
table the gate's limit is read from.  At the roots-float benchmark shapes
(i = N/2 and 7N/8) every admitted build's zero counts are compared with
exact's.  The per-pair rows (columns N, i, exit, kappa_u, rel_err) keep
every i for the built-in pairs and the roots-float shapes for the deck
pairs; the calibration covers every i of every pair.

With ``--parent-src DIR`` (the ``src`` directory of another checkout) it also
replays the 480 ``roots --float`` / ``table --float`` argvs of the float
identity grid (gaussian:A/B and gamma:A:3/2/B:3/2, A in {1/2, 2/3, 1, 3/2},
B in {3/2, 2, 5/2, 3}, A != B, N in {6, 10, 14, 18}, i in {N/2, 7N/8}) on
both sides and records exit codes and coefficient errors before and after.

Run from the repository root (two worker processes, about three minutes):

    python scripts/float_error_table.py [--parent-src DIR] [--jobs 2]
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blockortho import BlockOrthoError, Measure, block, build_sbo, build_sbos  # noqa: E402
from blockortho.analysis import zero_report  # noqa: E402
from blockortho.block import GAMMA_CONDITION_LIMIT, gamma_condition, gamma_matrix  # noqa: E402
from blockortho.gso import ORACLE_RTOL  # noqa: E402
from blockortho.standard import build_standard  # noqa: E402

ALPHAS = ("1/2", "2/3", "1", "3/2", "2", "5/2", "3")
ZS = ("1/2", "1", "3/2", "2", "3")
N_RANGE = range(4, 21)
DESCRIPTION = (
    "Float backend against exact, per measure pair, N and i: exit (see exit_codes), "
    "kappa_u (condition of the scaled gamma matrix times the unit roundoff, the gate's "
    "measurement) and rel_err (largest coefficient error of the unchecked float build "
    "against exact, relative to each polynomial's largest coefficient). Built-in pairs "
    "keep every i, deck pairs the roots-float shapes i = N/2 and 7N/8; calibration bins "
    "every build of every pair at N 4-20 and every i by kappa_u, with the outcome it has "
    "without the gate. See scripts/float_error_table.py."
)
ROW_KEYS = ("N", "i", "exit", "kappa_u", "rel_err")
EXIT_CODES = {"ok": "ok", "ConditioningError": "gated", "OracleMismatch": "mismatch",
              "NotPositiveDefinite": "indefinite"}
BINS = (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 2e-10, 5e-10, 1e-9, 1e-8, 1e-7, 1e-6, math.inf)


def _pairs():
    pairs = [("hermite", "gaussian:1", "gaussian:2"), ("laguerre", "gamma:1:1", "gamma:2:1")]
    pairs += [(None, f"gaussian:{a}", f"gaussian:{b}") for a, b in itertools.permutations(ALPHAS, 2)]
    pairs += [(None, f"gamma:{a}:{z}", f"gamma:{b}:{z}")
              for a, b in itertools.permutations(ALPHAS, 2) for z in ZS]
    return pairs


def _measure(spec):
    parts = spec.split(":")
    if parts[0] == "gaussian":
        return Measure.gaussian(parts[1])
    return Measure.gamma_weight(parts[1], parts[2])


def _quarter(n, fraction):
    return min(round(fraction * n), n - 1)


def _rel_err(coeff_lists, exact):
    """Largest coefficient error against ``exact``, per polynomial relative."""
    worst = 0.0
    for n in exact.degrees():
        ref = [float(c) for c in exact.monic_poly(n).coeffs]
        got = list(coeff_lists[n]) + [0.0] * (len(ref) - len(coeff_lists[n]))
        worst = max(worst, max(abs(a - b) for a, b in zip(got, ref)) / max(map(abs, ref)))
    return worst


def _outcome(m1, m2, i, n_size):
    try:
        build_sbo(m1, m2, i, n_size, backend="float")
        return "ok"
    except BlockOrthoError as exc:
        return type(exc).__name__


def _row(task):
    """Every i at one (pair, N): exit, ungated exit, kappa_u, rel_err, and
    whether the zero counts equal exact's (None unless compared)."""
    _, spec1, spec2, n_size = task
    m1, m2 = _measure(spec1), _measure(spec2)
    exact = build_sbos(m1, m2, range(n_size), n_size, check=False)
    q_float = build_standard(m1, n_size, backend="float")
    roots_shapes = {_quarter(n_size, 0.5), _quarter(n_size, 0.875)}
    out = []
    for i in range(n_size):
        try:
            fl = build_sbo(m1, m2, i, n_size, backend="float", check=False)
            err, gamma = _rel_err({n: fl.monic_poly(n).coeffs for n in fl.degrees()}, exact[i]), fl.gamma
        except BlockOrthoError:
            fl, err, gamma = None, None, gamma_matrix(q_float, m2, i)
        exit_kind = _outcome(m1, m2, i, n_size)
        ungated = exit_kind
        if exit_kind == "ConditioningError":
            block.GAMMA_CONDITION_LIMIT = math.inf
            try:
                ungated = _outcome(m1, m2, i, n_size)
            finally:
                block.GAMMA_CONDITION_LIMIT = GAMMA_CONDITION_LIMIT
        zeros_equal = None
        if exit_kind == "ok" and i in roots_shapes:
            zeros_equal = all(zero_report(fl, n).count == zero_report(exact[i], n).count
                              for n in fl.degrees())
        out.append((i, exit_kind, ungated, gamma_condition(gamma), err, zeros_equal))
    return task, out


def _sig(x):
    return None if x is None else (x if math.isinf(x) else float(f"{x:.2g}"))


# -- the argv grid, replayed on both sides -----------------------------------

GRID_DRIVER = """
import contextlib, io, json, sys
from blockortho.cli import main
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    out.append([rc, buf.getvalue()])
json.dump(out, sys.stdout)
"""


def _grid_argvs():
    argvs = []
    for family in ("gaussian", "gamma"):
        for a, b in itertools.product(("1/2", "2/3", "1", "3/2"), ("3/2", "2", "5/2", "3")):
            if a == b:
                continue
            m1, m2 = (f"gaussian:{a}", f"gaussian:{b}") if family == "gaussian" else (
                f"gamma:{a}:3/2", f"gamma:{b}:3/2")
            for n_size in (6, 10, 14, 18):
                for i in sorted({n_size // 2, 7 * n_size // 8}):
                    for command in ("roots", "table"):
                        argvs.append([command, "--float", "--measure1", m1, "--measure2", m2,
                                      "--N", str(n_size), "--i", str(i)])
    return argvs


def _replay(src, argvs):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", GRID_DRIVER], input=json.dumps(argvs),
                          capture_output=True, text=True, check=True, env=env)
    return json.loads(proc.stdout)


def _table_err(argv, rc, stdout):
    """Coefficient error of a ``table --float`` output against the exact build."""
    if rc != 0:
        return None
    m1, m2, n_size, i = _measure(argv[3]), _measure(argv[5]), int(argv[7]), int(argv[9])
    exact = build_sbo(m1, m2, i, n_size, check=False)
    payload = json.loads(stdout)
    return _rel_err({n: payload[f"P_{i}_{n}"]["coeffs"] for n in exact.degrees()}, exact)


def _grid(parent_src):
    argvs = _grid_argvs()
    sides = _replay(parent_src, argvs), _replay(ROOT / "src", argvs)
    # a roots argv builds the same float basis as its table twin, which follows it
    errors = [[None] * len(argvs) for _ in sides]
    for side, results in enumerate(sides):
        for k, (argv, (rc, stdout)) in enumerate(zip(argvs, results)):
            if argv[0] == "table":
                errors[side][k] = errors[side][k - 1] = _table_err(argv, rc, stdout)
    return [
        {
            "argv": " ".join(argv),
            "exit_before": before[0],
            "exit_after": after[0],
            "rel_err_before": _sig(errors[0][k]),
            "rel_err_after": _sig(errors[1][k]),
        }
        for k, (argv, before, after) in enumerate(zip(argvs, *sides))
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent-src", type=Path, help="src directory of the checkout to compare against")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_float_error.json")
    args = parser.parse_args()

    tasks = [(name, s1, s2, n) for name, s1, s2 in _pairs() for n in N_RANGE]
    with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
        results = pool.map(_row, tasks, chunksize=8)

    bins = {edge: {"builds": 0, "max_rel_err": 0.0} for edge in BINS}
    zeros = {"compared": 0, "differ": 0}
    rows = {}
    for (name, s1, s2, n_size), entries in results:
        row = rows.setdefault(name or f"{s1}/{s2}", {key: [] for key in ROW_KEYS})
        keep = range(n_size) if name else {_quarter(n_size, 0.5), _quarter(n_size, 0.875)}
        for i, exit_kind, ungated, kappa_u, err, zeros_equal in entries:
            if i in keep:
                for key, value in zip(ROW_KEYS, (n_size, i, EXIT_CODES[exit_kind],
                                                 _sig(kappa_u), _sig(err))):
                    row[key].append(value)
            cell = bins[BINS[bisect.bisect_left(BINS, kappa_u)]]
            cell["builds"] += 1
            cell[ungated] = cell.get(ungated, 0) + 1
            if err is not None and exit_kind != "ConditioningError":
                cell["max_rel_err_admitted"] = max(cell.get("max_rel_err_admitted", 0.0), err)
            if err is not None:
                cell["max_rel_err"] = max(cell["max_rel_err"], err)
            if zeros_equal is not None:
                zeros["compared"] += 1
                zeros["differ"] += not zeros_equal
    calibration = [{"kappa_u_upto": "inf" if math.isinf(edge) else edge,
                    **{k: (_sig(v) if k.startswith("max") else v) for k, v in cell.items()}}
                   for edge, cell in bins.items()]

    report = {
        "description": DESCRIPTION,
        "command": "python scripts/float_error_table.py" + (" --parent-src DIR" if args.parent_src else ""),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gate": {"limit": GAMMA_CONDITION_LIMIT, "oracle_rtol": ORACLE_RTOL},
        "exit_codes": {code: kind for kind, code in EXIT_CODES.items()},
        "calibration": calibration,
        "roots_shape_zero_counts": zeros,
        "pairs": [{"pair": pair, **row} for pair, row in rows.items()],
    }
    if args.parent_src:
        report["argv_grid"] = _grid(args.parent_src)
    text = json.dumps(report, separators=(",", ":"))
    # one pair row, calibration bin or argv per line keeps diffs readable
    for key in ('{"pair"', '{"kappa_u_upto"', '{"argv"'):
        text = text.replace(key, "\n" + key)
    args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
