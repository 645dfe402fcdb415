"""End-to-end CLI wall time: writes BENCH_cli_wall.json at the repository root.

Each row is one command line run in a fresh interpreter, the way the
installed ``blockortho`` console script runs it (``from blockortho.cli
import main``), so its wall time includes interpreter start-up and the
package import.  The rows are the bare import ``import blockortho,
blockortho.cli`` and, for both built-in pairs (``hermite``, ``laguerre``)
at N 8, 12, 16 and 20, on the exact and the ``--float`` backend:

* ``table``: the whole table at N <= 12, the one-i table ``--i N/4`` above;
* ``verify --checks orthogonality``;
* ``roots --i N/2``;

and one row each for the commands whose start-up differs from these:
``moments``, ``three-subspace``, ``projector`` and a usage error (exit 2),
which loads no library module at all.

Every row is run ``RUNS`` (11) times after one untimed warm-up,
which also writes the bytecode caches unless ``PYTHONDONTWRITEBYTECODE`` is
set (then every run compiles the modules it imports, and ``bytecode`` in
the report says so).  A row reports the median wall time ``wall_s`` with
its quartiles, and the command's exit code (a float build the
conditioning gate refuses exits 1, which is part of the row).

With ``--parent-src DIR`` (the ``src`` directory of another checkout)
every row is also timed there: each repetition runs both sides back to
back, the first side alternating, the rows carry a ``side`` of ``parent``
or ``change``, and both sides must print the same stdout with the same
exit code, or the script stops with an error.  ``summary`` gives, per row
kind, the median over its rows of the change / parent ratio of
``wall_s``.

Run from the repository root (one process at a time, about three minutes,
or six with ``--parent-src``):

    python scripts/cli_wall.py [--parent-src DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ("hermite", "laguerre")
SIZES = (8, 12, 16, 20)
BACKENDS = ("exact", "float")
RUNS = 11
WHOLE_TABLE_MAX_N = 12
# one row per command outside the table/verify/roots grid
SINGLE_ROWS = (
    ("moments", ["moments", "--measure", "gamma:1:2", "--max-order", "6"]),
    ("three-subspace", ["three-subspace", "--z12", "1", "--z23", "2", "--z13", "3"]),
    ("projector", ["projector", "--pair", "hermite", "--N", "6", "--i", "2"]),
    ("usage error", ["table", "--pair", "nope", "--N", "4"]),
)

IMPORT = ["-c", "import blockortho, blockortho.cli"]
CLI = ["-c", "import sys; from blockortho.cli import main; sys.exit(main(sys.argv[1:]))"]


def _rows():
    """(row, interpreter arguments) for every row, the import first."""
    yield {"command": "import"}, IMPORT
    for command in ("table", "verify", "roots"):
        for pair in PAIRS:
            for n_size in SIZES:
                for backend in BACKENDS:
                    argv = [command, "--pair", pair, "--N", str(n_size)]
                    if command == "table" and n_size > WHOLE_TABLE_MAX_N:
                        argv += ["--i", str(n_size // 4)]
                    elif command == "verify":
                        argv += ["--checks", "orthogonality"]
                    elif command == "roots":
                        argv += ["--i", str(n_size // 2)]
                    if backend == "float":
                        argv.append("--float")
                    row = {"command": command, "pair": pair, "N": n_size, "backend": backend,
                           "argv": " ".join(argv)}
                    yield row, CLI + argv
    for command, argv in SINGLE_ROWS:
        yield {"command": command, "argv": " ".join(argv)}, CLI + argv


def _run(src, args):
    """Wall time, exit code and stdout of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent-src", type=Path, help="src directory of the checkout to compare against")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli_wall.json")
    args = parser.parse_args()

    sides = ([("parent", args.parent_src)] if args.parent_src else []) + [("change", ROOT / "src")]
    rows = []
    ratios = {}
    for row, interpreter_args in _rows():
        for _, src in sides:
            _run(src, interpreter_args)
        times = {side: [] for side, _ in sides}
        results = {}
        for rep in range(RUNS):
            for side, src in (sides if rep % 2 == 0 else sides[::-1]):
                seconds, code, out = _run(src, interpreter_args)
                times[side].append(seconds)
                results[side] = (code, out)
        if len(set(results.values())) > 1:
            sys.exit(f"output or exit code differs between the sides on {row}")
        for side, _ in sides:
            q1, _, q3 = statistics.quantiles(times[side], n=4)
            out_row = dict(row)
            if args.parent_src:
                out_row["side"] = side
            out_row.update(wall_s=round(statistics.median(times[side]), 4),
                           q1_s=round(q1, 4), q3_s=round(q3, 4), rc=results[side][0])
            rows.append(out_row)
        if args.parent_src:
            kind = " ".join(filter(None, (row["command"], row.get("backend"))))
            ratio = statistics.median(times["change"]) / statistics.median(times["parent"])
            ratios.setdefault(kind, []).append(ratio)

    report = {
        "description": (
            "Wall time in seconds of one fresh interpreter per run, median (wall_s) and "
            f"quartiles (q1_s, q3_s) of {RUNS} runs after one untimed warm-up, and the "
            "exit code rc: the bare package import; table (whole at N <= 12, --i N/4 above), "
            "verify --checks orthogonality and roots --i N/2 on both built-in pairs at "
            "N 8-20, exact and --float; and one row each for moments, three-subspace, "
            "projector and a usage error (exit 2). With --parent-src both sides run back to "
            "back in each repetition, the first side alternating, and printed the same stdout "
            "and exit code; summary is the median over each row kind of change / parent "
            "wall_s. See scripts/cli_wall.py."
        ),
        "command": "python scripts/cli_wall.py" + (" --parent-src DIR" if args.parent_src else ""),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "bytecode": "not written (PYTHONDONTWRITEBYTECODE set)"
        if os.environ.get("PYTHONDONTWRITEBYTECODE") else "cached by the warm-up",
    }
    if args.parent_src:
        report["summary"] = {kind: round(statistics.median(values), 3) for kind, values in ratios.items()}
    report["rows"] = rows
    text = json.dumps(report, indent=None, separators=(",", ":"))
    # one row per line keeps diffs readable
    args.out.write_text(text.replace('{"command"', '\n{"command"') + "\n")


if __name__ == "__main__":
    main()
