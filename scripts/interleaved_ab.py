"""Interleaved A/B op timing against another checkout, in one process:
writes BENCH_interleaved_ab.json at the repository root.

Separate-process benchmark runs of one commit move by tens of percent on a
shared host, so this script loads both packages into one interpreter and
times them op by op.  The parent's ``blockortho`` package (``DIR`` is the
``src`` directory of the other checkout) is copied into a temporary
directory as ``blockortho_parent``; the package imports itself only
relatively, so both ``cli`` modules load side by side.

For each workload of ``benchmark/workloads.py`` and each seed of ``SEEDS``,
the ops of the first ``MIN_ROUNDS[workload]`` rounds (the rounds of the
shortest benchmark run) are called through ``benchmark/worker.py``'s
``_call``, with the worker's fallback: a failed ``roots --float`` op is
re-run without ``--float`` and the op's time includes both calls.  Each op
runs on both sides back to back, ``REPEATS`` times, and the side that goes
first alternates from op to op and from repetition to repetition; garbage
is collected before every call, outside the timed region.  An op's time on
a side is its minimum over the repetitions.  Exit code and stdout must be
identical on both sides for every op, or the script stops with an error;
``--ignore-report-keys`` names keys of ``verify`` reports that a change of
output adds or removes, which are dropped from both sides before the
comparison.

Per workload and seed the report gives, for each side, the median op time
(``p50_s``), the op time at the workload's tail quantile (``tail_s``, at
``workloads.tail_quantile(workload)``), both by ``benchmark/run.py``'s
Harrell-Davis estimate, and the summed op time (``sum_s``).

Run from the repository root (one process, a few minutes):

    python scripts/interleaved_ab.py --parent-src DIR [--ignore-report-keys n,samples]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import harrell_davis  # noqa: E402
from worker import _call  # noqa: E402

SEEDS = (801, 802, 803)
REPEATS = 5
SIDES = ("parent", "change")


def _op(main, argv):
    """Exit code, stdout and seconds of one op, with the worker's fallback."""
    gc.collect()
    t0 = time.perf_counter()
    rc, out, _ = _call(main, argv)
    if argv[0] == "roots" and rc != 0:
        rc, out, _ = _call(main, [a for a in argv if a != "--float"])
    return rc, out, time.perf_counter() - t0


def _comparable(argv, rc, out, ignored):
    """Exit code and stdout of an op, a verify op's reports without the
    ``ignored`` keys."""
    if argv[0] != "verify" or not ignored or rc != 0:
        return rc, out
    payload = json.loads(out)
    payload["reports"] = [{k: v for k, v in r.items() if k not in ignored} for r in payload["reports"]]
    return rc, payload


def _ops(workload, seed):
    rounds = workloads.rounds(workload, seed)
    return [op for _ in range(workloads.MIN_ROUNDS[workload]) for op in next(rounds)]


def _compare(mains, workload, seed, ignored):
    times = {side: [] for side in SIDES}
    for k, op in enumerate(_ops(workload, seed)):
        best = dict.fromkeys(SIDES, float("inf"))
        for rep in range(REPEATS):
            order = SIDES if (k + rep) % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                rc, out, seconds = _op(mains[side], op["argv"])
                results[side] = _comparable(op["argv"], rc, out, ignored)
                best[side] = min(best[side], seconds)
            if results["parent"] != results["change"]:
                sys.exit(f"{workload} seed {seed}: output differs on {op['argv']}")
        for side in SIDES:
            times[side].append(best[side])
    tail = workloads.tail_quantile(workload)
    row = {"workload": workload, "seed": seed, "ops": len(times["change"])}
    for side in SIDES:
        ranked = sorted(times[side])
        row[side] = {
            "p50_s": round(harrell_davis(ranked, 0.5), 6),
            "tail_s": round(harrell_davis(ranked, tail), 6),
            "sum_s": round(sum(ranked), 4),
        }
    return row


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent-src", type=Path, required=True,
                        help="src directory of the checkout to compare against")
    parser.add_argument("--ignore-report-keys", default="",
                        help="comma-separated keys of verify reports left out of the "
                             "output comparison (an intended output change)")
    args = parser.parse_args()
    ignored = sorted(filter(None, args.ignore_report_keys.split(",")))

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(args.parent_src / "blockortho", Path(tmp) / "blockortho_parent")
        sys.path.insert(0, tmp)
        mains = {
            "parent": importlib.import_module("blockortho_parent.cli").main,
            "change": importlib.import_module("blockortho.cli").main,
        }
        rows = [_compare(mains, w, seed, ignored) for w in workloads.WORKLOADS for seed in SEEDS]

    report = {
        "description": (
            "Per-op wall time in seconds of this checkout (change) against --parent-src "
            "(parent), both loaded in one process: the ops of the first MIN_ROUNDS rounds "
            "of each workload and seed, each run on both sides back to back, the first "
            f"side alternating, minimum of {REPEATS} repetitions per op. p50_s is the "
            "median op time, tail_s the op time at the workload's tail quantile (both "
            "Harrell-Davis, as benchmark/run.py takes them), sum_s the summed op time. "
            "Exit code and stdout were identical on every op, but for the keys of verify "
            "reports in ignored_report_keys. See scripts/interleaved_ab.py."
        ),
        "command": "python scripts/interleaved_ab.py --parent-src DIR"
        + (f" --ignore-report-keys {','.join(ignored)}" if ignored else ""),
        "ignored_report_keys": ignored,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "tail_quantile": {w: round(workloads.tail_quantile(w), 4) for w in workloads.WORKLOADS},
        "rows": rows,
    }
    text = json.dumps(report, indent=None, separators=(",", ":"))
    # one row per line keeps diffs readable
    (ROOT / "BENCH_interleaved_ab.json").write_text(text.replace('{"workload"', '\n{"workload"') + "\n")


if __name__ == "__main__":
    main()
