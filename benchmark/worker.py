"""Closed-loop client: runs one workload's ops in this process.

Started by ``run.py`` as its own process, so the peak resident memory it
reports is the workload's.  One op is one call to ``blockortho.cli.main``
with stdout and stderr captured; the next op starts when the previous one
returns.  Whole rounds run until ``--seconds`` have passed and at least
``--min-rounds`` rounds are done, so every run's op mix is a whole number of
rounds.  Before the first timed op, a few small untimed ops warm the
interpreter up (lazy imports, allocator arenas), and before every op the
garbage of earlier ops is collected, outside the timed region, so no op pays
for a collection of another op's objects.

On a shared host each CPU's speed drifts on its own, and the scheduler keeps
a busy process on one CPU for long stretches.  The client therefore pins
itself to the next usable CPU, in turn, before each op: every run samples all
of them alike, whichever CPU it happened to start on.  Only one op runs at a
time.

Writes one JSON line per op to stdout, then one summary line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _error_kind(rc, stderr):
    """Exception kind and message from the CLI's JSON error line.

    Exit code 1 with no error line is a run whose output reports a failed
    check (``"passed": false``).
    """
    for line in reversed(stderr.splitlines()):
        try:
            err = json.loads(line)
        except ValueError:
            continue
        if isinstance(err, dict) and "error" in err:
            return err.get("kind", "UsageError"), err["error"]
    return ("PassedFalse" if rc == 1 else "Other"), ""


def _call(main, argv):
    """Exit code, stdout and stderr of one CLI call.

    An exception that escapes the CLI is an op failure, not the end of the
    run: it is recorded with its traceback and exit code 70.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 70
    return rc, out.getvalue(), err.getvalue()


# Untimed warm-up ops: each command once, at small N, on a fixed pair.
WARMUP = (
    ["table", "--measure1", "gaussian:1", "--measure2", "gaussian:2", "--N", "5"],
    ["verify", "--measure1", "gamma:1:1", "--measure2", "gamma:2:1", "--N", "4"],
    ["roots", "--float", "--measure1", "gaussian:1", "--measure2", "gaussian:2", "--N", "6",
     "--i", "3"],
    ["three-subspace", *workloads.README_THREE_SUBSPACE[0][0]],
)


def run(args, emit):
    from blockortho import cli

    for argv in WARMUP:
        _call(cli.main, argv)

    tracer = None
    if args.spans_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    start = time.perf_counter()
    hard_stop = start + args.hard_seconds
    op_id = 0
    rounds_started = 0
    hard_stopped = False
    for ops in workloads.rounds(args.workload, args.seed):
        if hard_stopped or (rounds_started >= args.min_rounds
                            and time.perf_counter() - start >= args.seconds):
            break
        rounds_started += 1
        for op in ops:
            if time.perf_counter() >= hard_stop:
                hard_stopped = True
                break
            if tracer:
                tracer.begin_op(op_id)
            record = {"op": op_id, "round": rounds_started - 1, **op}
            if len(cpus) > 1:
                os.sched_setaffinity(0, {cpus[op_id % len(cpus)]})
            gc.collect()
            t0 = time.perf_counter()
            rc, out, err = _call(cli.main, op["argv"])
            if op["kind"] == "roots" and rc != 0:
                t_float = time.perf_counter() - t0
                record["fallback"] = dict(zip(("kind", "message"), _error_kind(rc, err)),
                                          rc=rc, float_s=t_float)
                rc, out, err = _call(cli.main, [a for a in op["argv"] if a != "--float"])
            record["latency_s"] = time.perf_counter() - t0
            if tracer:
                record["float_coeffs"] = tracer.end_op()
            record.update(rc=rc, stdout=out, stderr=err[-2000:])
            emit(record)
            op_id += 1
    wall = time.perf_counter() - start
    summary = {
        "summary": True,
        "wall_s": wall,
        "rounds": rounds_started,
        "hard_stopped": hard_stopped,
        "ops": op_id,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        summary["trace"] = tracer.summary()
        tracer.dump(args.spans_out)
    emit(summary)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-rounds", type=int, required=True)
    parser.add_argument("--hard-seconds", type=float, required=True)
    parser.add_argument("--spans-out", help="trace the run and write its spans here")
    args = parser.parse_args()
    stdout = sys.stdout

    def emit(obj):
        stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
        stdout.flush()

    run(args, emit)


if __name__ == "__main__":
    main()
