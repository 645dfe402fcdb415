"""Exact-backend scaling table: writes BENCH_exact_scaling.json at the repository root.

For the built-in hermite (gaussian:1/gaussian:2) and laguerre
(gamma:1:1/gamma:2:1) pairs at N 16, 32 and 48, it times, in a fresh
interpreter per (pair, N, side), the exact ``build_sbo(m1, m2, i=2, N)``
with checks on (``on_s``) and with ``check=False`` (``off_s``), and two of
its layers: the gamma assembly ``gamma_matrix(q_basis, mu2, i)`` on the
monic first stage (``gamma_s``) and the checked first stage
``build_standard(m1, N)`` (``first_stage_s``).  After one untimed warm-up
of each, every one of 5 repetitions times each of the four once, back to
back, in an order that reverses from one repetition to the next.  Each row
records the median time of each, and, as the cost of the checks, the
median of the 5 per-repetition on / off ratios with their quartiles
(``ratio_q1``, ``ratio_q3``): a slow stretch of the host then slows both
builds of a ratio alike, and the quartiles show how far single
repetitions still move.  Both builds pay for gamma and the first stage, so
a faster layer lowers off_s as much as on_s and can raise the ratio.

``targets`` reads the scaling goal off the rows of this checkout: checks on
within twice checks off at N 48 for both pairs.  It is a ratio of two
timings on one host, so it does not depend on the speed of the host.

With ``--parent-src DIR`` (the ``src`` directory of another checkout) every
row is also timed there, alternating which side runs first, and the rows
carry a ``side`` of ``parent`` or ``change``.

Run from the repository root (one process at a time, about two minutes, or
four with ``--parent-src``):

    python scripts/exact_scaling.py [--parent-src DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = {"hermite": ("gaussian:1", "gaussian:2"), "laguerre": ("gamma:1:1", "gamma:2:1")}
SIZES = (16, 32, 48)
RUNS = 5
I = 2
RATIO_TARGET = 2.0  # checks on over checks off, N 48

TIMING_DRIVER = """
import json, statistics, sys, time
from blockortho import Measure, build_sbo, build_standard, gamma_matrix
from blockortho.measures import moments

def measure(spec):
    parts = spec.split(":")
    if parts[0] == "gaussian":
        return Measure.gaussian(parts[1])
    return Measure.gamma_weight(parts[1], parts[2])

spec1, spec2, n_size, i, runs = json.loads(sys.argv[1])
m1, m2 = measure(spec1), measure(spec2)
q_basis = build_standard(m1, n_size)
mu2 = moments(m2, 2 * n_size - 2)
tasks = (
    ("on_s", lambda: build_sbo(m1, m2, i, n_size)),
    ("off_s", lambda: build_sbo(m1, m2, i, n_size, check=False)),
    ("gamma_s", lambda: gamma_matrix(q_basis, mu2, i)),
    ("first_stage_s", lambda: build_standard(m1, n_size)),
)
for _, task in tasks:
    task()
times = {key: [] for key, _ in tasks}
for rep in range(runs):
    for key, task in (tasks if rep % 2 == 0 else tasks[::-1]):
        t0 = time.perf_counter()
        task()
        times[key].append(time.perf_counter() - t0)
out = {key: statistics.median(values) for key, values in times.items()}
ratios = [on / off for on, off in zip(times["on_s"], times["off_s"])]
out["ratio"] = statistics.median(ratios)
out["ratio_q1"], _, out["ratio_q3"] = statistics.quantiles(ratios, n=4)
json.dump(out, sys.stdout)
"""

TIMES = ("on_s", "off_s", "gamma_s", "first_stage_s")
RATIOS = ("ratio", "ratio_q1", "ratio_q3")


def _time(src, spec1, spec2, n_size):
    env = dict(os.environ, PYTHONPATH=str(src))
    args = json.dumps([spec1, spec2, n_size, I, RUNS])
    proc = subprocess.run([sys.executable, "-c", TIMING_DRIVER, args], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _row(pair, n_size, side, times):
    row = {"pair": pair, "N": n_size}
    if side:
        row["side"] = side
    row.update({key: round(times[key], 6) for key in TIMES})
    row.update({key: round(times[key], 2) for key in RATIOS})
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent-src", type=Path, help="src directory of the checkout to compare against")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_exact_scaling.json")
    args = parser.parse_args()

    sides = ([("parent", args.parent_src)] if args.parent_src else []) + [("change", ROOT / "src")]
    rows = []
    for k, (pair, n_size) in enumerate((p, n) for p in PAIRS for n in SIZES):
        order = sides if k % 2 == 0 else sides[::-1]
        timed = {side: _time(src, *PAIRS[pair], n_size) for side, src in order}
        for side, _ in sides:
            rows.append(_row(pair, n_size, side if args.parent_src else None, timed[side]))

    mine = {(r["pair"], r["N"]): r for r in rows if r.get("side", "change") == "change"}
    top = max(SIZES)
    report = {
        "description": (
            f"Exact build_sbo(i={I}) wall time in seconds with checks on (on_s) and off "
            "(off_s), gamma_matrix on the monic first stage (gamma_s) and the checked "
            f"build_standard (first_stage_s), median of {RUNS} repetitions after one "
            "warm-up each, one fresh interpreter per row; each repetition times each of "
            "the four once, back to back, and ratio is the median of the per-repetition "
            "on / off, with its quartiles ratio_q1 and ratio_q3. Both builds pay for "
            "gamma and the first stage. See scripts/exact_scaling.py."
        ),
        "command": "python scripts/exact_scaling.py" + (" --parent-src DIR" if args.parent_src else ""),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "targets": {
            f"ratio_N{top}": {pair: mine[(pair, top)]["ratio"] for pair in PAIRS},
            f"ratio_N{top}_quartiles": {
                pair: [mine[(pair, top)]["ratio_q1"], mine[(pair, top)]["ratio_q3"]] for pair in PAIRS
            },
            f"ratio_N{top}_max": RATIO_TARGET,
            f"ratio_N{top}_met": all(mine[(pair, top)]["ratio"] <= RATIO_TARGET for pair in PAIRS),
        },
        "rows": rows,
    }
    text = json.dumps(report, indent=None, separators=(",", ":"))
    # one row per line keeps diffs readable
    args.out.write_text(text.replace('{"pair"', '\n{"pair"') + "\n")


if __name__ == "__main__":
    main()
