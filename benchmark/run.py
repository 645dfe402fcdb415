"""blockortho benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload table-exact --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is the ``blockortho`` package
under ``src/``; each op is one in-process call to ``blockortho.cli.main``,
made by a single closed-loop client in a child process (``worker.py``).
Outputs are checked after the loop (``check.py``), outside the timed region.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the workload untraced and then traced, for half the time each, and
reports the per-layer metrics and the tracing overhead.  Human-readable lines
come first; the last line of stdout is one JSON object.  A full record with
provenance is written to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 4  # before the workload, and as many again after it
WORKER_GRACE_S = 30

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "correct_share": "ratio",
    "peak_rss_mb": "MB",
}

SUITE_FUNCTIONS = {  # verify suite -> the verification function that runs it
    suite: f"check_{'integrals' if suite == 'integral_representations' else suite}"
    for suite in workloads.SUITES
}
FLOAT_ERROR_KINDS = ("OracleMismatch", "NotPositiveDefinite", "ConditioningError",
                     "PassedFalse", "Other")
# Text of the error message -> the stage it names.
FLOAT_STAGES = (
    ("inductive and determinant routes", "first_stage_oracle"),
    ("second-stage determinant oracle", "second_stage_oracle"),
    ("subleading-coefficient identities", "subleading_identities"),
    ("pivot", "pivot_floor"),
)

# Per-layer metrics: (name, unit).  Layer counts and times are per op.
LAYERS = (
    [("block.sbo_determinant_oracle.calls", "count/op"),
     ("block.sbo_determinant_oracle.self_s", "s/op"),
     ("block.sbo_determinant_oracle.total_s", "s/op"),
     ("linalg.det.calls", "count/op"),
     ("linalg.det.self_s", "s/op"),
     ("block.gamma_matrix.calls", "count/op"),
     ("block.gamma_matrix.self_s", "s/op"),
     ("block.gamma_matrix.distinct_ratio", "ratio"),
     ("measures.inner_product_mu.calls", "count/op"),
     ("measures.inner_product_mu.self_s", "s/op"),
     ("standard.build_standard.calls", "count/op"),
     ("standard.build_standard.self_s", "s/op"),
     ("standard.build_standard.distinct_ratio", "ratio"),
     ("block.build_sbo.calls", "count/op"),
     ("block.build_sbo.total_s", "s/op"),
     ("gso.gram_schmidt.calls", "count/op"),
     ("gso.gram_schmidt.self_s", "s/op"),
     ("gso.gram_schmidt.max_dim", "count"),
     ("gso.determinant_oracle_vector.self_s", "s/op"),
     ("analysis.zero_report.calls", "count/op"),
     ("analysis.zero_report.self_s", "s/op"),
     ("analysis.gauss_rule.self_s", "s/op"),
     ("analysis.verify_z_integral.self_s", "s/op"),
     ("analysis.verify_p_integral.self_s", "s/op")]
    + [(f"verification.{fn}.total_s", "s/op") for fn in SUITE_FUNCTIONS.values()]
    + [("projectors.projectors_from_q.self_s", "s/op"),
       ("projectors.projectors_from_second.self_s", "s/op"),
       ("block.sbo_parity_build.self_s", "s/op"),
       ("standard.parity_split_build.self_s", "s/op"),
       ("multiblock.appendix_b_laguerre.total_s", "s/op"),
       ("cli.main.self_s", "s/op"),
       ("cli.output_bytes", "B/op"),
       ("op.uncovered_s", "s/op"),
       ("op.uncovered_share", "ratio"),
       ("trace.overhead_share", "ratio"),
       ("trace.spans", "count/op"),
       ("float.fallback_share", "ratio")]
    + [(f"float.errors.{kind}", "ratio") for kind in FLOAT_ERROR_KINDS]
    + [(f"float.stages.{stage}", "ratio") for _, stage in FLOAT_STAGES]
    + [("float.stages.unnamed", "ratio"),
       ("float.max_rel_err", "ratio"),
       ("roots.theorem_false_share", "ratio"),
       ("exact.max_coeff_bits", "bit")]
)


# -- program under test ---------------------------------------------------

def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(times, warm=False):
    """Append wall times of a fresh interpreter importing the package and CLI.

    With ``warm``, one untimed import comes first: the first import in a
    checkout also writes the bytecode caches.
    """
    cmd = [sys.executable, "-c", "import blockortho, blockortho.cli"]
    for k in range(SETUP_SAMPLES + warm):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if k or not warm:
            times.append(time.perf_counter() - t0)


def run_worker(workload, seed, seconds, min_rounds, spans_out=None):
    """Run the client; with ``spans_out`` it is traced and writes its spans there."""
    hard = 1.5 * seconds + 15
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--hard-seconds", str(hard),
           "--min-rounds", str(min_rounds)]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                          timeout=hard + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
    summary = lines.pop()
    if not summary.get("summary"):
        raise RuntimeError("worker ended without a summary")
    return lines, summary


# -- correctness --------------------------------------------------------------

class RootsReference:
    """Exact-backend answers for roots ops, computed once per distinct argv.

    An op whose float attempt failed was answered by the exact backend, so
    its first answer is the reference for that argv, and every replay must
    match it; the exact answer is computed here only for argvs that the float
    backend answered.
    """

    def __init__(self, records):
        self.cache = {}
        for rec in records:
            key = ("roots", tuple(rec["argv"]))
            if rec["kind"] == "roots" and "fallback" in rec and rec["stdout"]:
                self.cache.setdefault(key, check.roots_summary(rec["stdout"]))

    def _cli(self, argv):
        from worker import _call
        from blockortho import cli

        return _call(cli.main, argv)

    def counts(self, op):
        key = ("roots", tuple(op["argv"]))
        if key not in self.cache:
            _, out, _ = self._cli([a for a in op["argv"] if a != "--float"])
            self.cache[key] = check.roots_summary(out)
        return self.cache[key]

    def monic_coeffs(self, op):
        key = ("table", tuple(op["argv"]))
        if key not in self.cache:
            m1, m2 = op["measures"]
            _, out, _ = self._cli(["table", "--measure1", m1, "--measure2", m2,
                                   "--N", str(op["N"]), "--i", str(op["i"])])
            payload = json.loads(out)
            self.cache[key] = {
                str(n): [float(Fraction(c)) for c in payload[f"P_{op['i']}_{n}"]["coeffs"]]
                for n in range(op["i"], op["N"])
            }
        return self.cache[key]


def check_op(rec, reference):
    kind, rc, out = rec["kind"], rec["rc"], rec["stdout"]
    try:
        if kind == "table":
            return check.check_table(rec, rc, out)
        if kind == "verify":
            return check.check_verify(rec, rc, out)
        if kind == "three-subspace":
            return check.check_three_subspace(rec, rc, out)
        return check.check_roots(rec, rc, out, reference.counts(rec))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def rel_err(got, want):
    scale = max(abs(x) for x in want) or 1.0
    return max(abs(a - b) for a, b in zip(got, want)) / scale


# -- metrics --------------------------------------------------------------

def harrell_davis(ranked, q, steps=4000):
    """Harrell-Davis estimate of the q-quantile of sorted values.

    A weighted mean of all order statistics, with the weight of the i-th the
    Beta(q(n+1), (1-q)(n+1)) mass on [(i-1)/n, i/n].  Op latencies spread
    over two decades, so one order statistic jumps when a few ops change
    rank; this estimate moves smoothly.  The Beta CDF is integrated with
    Simpson's rule.
    """
    n = len(ranked)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(t):
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    h = 1.0 / steps
    cdf = [0.0]
    for k in range(1, steps + 1):
        t = k * h
        cdf.append(cdf[-1] + h * (pdf(t - h) + 4 * pdf(t - h / 2) + pdf(t)) / 6)
    edges = [cdf[round(i * steps / n)] for i in range(n + 1)]
    return sum((edges[i + 1] - edges[i]) * x for i, x in enumerate(ranked)) / edges[n]


def latency_stats(records, quantile):
    """Median and tail latency; failed ops rank as the slowest."""
    worst = max(r["latency_s"] for r in records)
    ranked = sorted(r["latency_s"] if r["ok"] else math.inf for r in records)
    ranked = [worst if math.isinf(x) else x for x in ranked]
    n = len(ranked)
    return {
        "op_p50_s": harrell_davis(ranked, 0.5),
        "op_tail_s": harrell_davis(ranked, quantile),
        "tail_percentile": 100.0 * quantile,
        "tail_samples_beyond": n - math.ceil(quantile * n - 1e-9),
        "samples": n,
    }


def end_to_end(workload, records, summary, setup_s):
    ok = sum(r["ok"] for r in records)
    stats = latency_stats(records, workloads.tail_quantile(workload))
    metrics = {
        "setup_s": setup_s,
        "op_p50_s": stats["op_p50_s"],
        "op_tail_s": stats["op_tail_s"],
        "ops_per_s": ok / summary["wall_s"],
        "correct_share": ok / len(records),
        "peak_rss_mb": summary["peak_rss_mb"],
    }
    detail = dict(stats, failed_share=1 - ok / len(records), wall_s=summary["wall_s"],
                  rounds=summary["rounds"], hard_stopped=summary["hard_stopped"])
    return metrics, detail


def per_layer(untraced, traced, summary, reference):
    trace = summary["trace"]
    ops = len(traced)
    layers = trace["layers"]
    values = {}
    for name, unit in LAYERS:
        func, _, stat = name.rpartition(".")
        if func in layers and stat in ("calls", "self_s", "total_s"):
            values[name] = layers[func][stat] / ops
        elif func in layers and stat in layers[func]:
            values[name] = layers[func][stat]
    lat = sum(r["latency_s"] for r in traced)
    library = sum(trace["library_s"].get(str(r["op"]), 0.0) for r in traced)
    values["op.uncovered_s"] = (lat - library) / ops
    values["op.uncovered_share"] = (lat - library) / lat
    values["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in traced) / ops
    values["trace.spans"] = trace["spans"] / ops
    common = min(len(untraced), len(traced))
    values["trace.overhead_share"] = (
        sum(r["latency_s"] for r in traced[:common])
        / sum(r["latency_s"] for r in untraced[:common]) - 1
    )
    roots = [r for r in traced if r["kind"] == "roots"]
    fallbacks = [r["fallback"] for r in roots if "fallback" in r]
    if roots:
        values["float.fallback_share"] = len(fallbacks) / len(roots)
        for fb in fallbacks:
            kind = fb["kind"] if fb["kind"] in FLOAT_ERROR_KINDS else "Other"
            values[f"float.errors.{kind}"] = values.get(f"float.errors.{kind}", 0) + 1 / len(roots)
            stage = next((s for text, s in FLOAT_STAGES if text in fb["message"]), "unnamed")
            values[f"float.stages.{stage}"] = values.get(f"float.stages.{stage}", 0) + 1 / len(roots)
        accepted = [r for r in roots if r["ok"] and "fallback" not in r and r["float_coeffs"]]
        values["float.max_rel_err"] = max(
            (rel_err(r["float_coeffs"][n], reference.monic_coeffs(r)[n])
             for r in accepted for n in r["float_coeffs"]),
            default=0.0,
        )
        values["roots.theorem_false_share"] = sum(
            not all(flag for _, flag in reference.counts(r).values())
            for r in roots if r["ok"]
        ) / len(roots)
    values["exact.max_coeff_bits"] = max(
        (check.max_coeff_bits(r["stdout"]) for r in traced if r["stdout"] and "fallback" not in r),
        default=0,
    )
    return {name: (values.get(name, 0), unit) for name, unit in LAYERS}


# -- provenance -------------------------------------------------------------

def provenance(workload, args, detail):
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    commit = commit or "unknown (not a git checkout)"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": detail["samples"],
        "rounds": detail["rounds"],
        "op_tail_percentile": detail["tail_percentile"],
        "op_tail_samples_beyond": detail["tail_samples_beyond"],
    }


def run_workload(workload, args, out_dir):
    """One run of one workload: prints its report, ending in its JSON line."""
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    # Set-up is sampled before and after the workload, so that its median
    # spans the host's speed over the whole run.
    setup_times = []
    measure_setup(setup_times, warm=True)
    seconds = args.seconds / 2 if args.trace else args.seconds
    # Per-layer metrics are per op, so one round is enough for each half of
    # a traced run.
    min_rounds = 1 if args.trace else workloads.MIN_ROUNDS[workload]
    untraced, summary = run_worker(workload, args.seed, seconds, min_rounds)
    traced = traced_summary = None
    if args.trace:
        traced, traced_summary = run_worker(workload, args.seed, seconds, min_rounds,
                                            spans_out=out_dir / f"spans-{tag}.jsonl")

    measure_setup(setup_times)
    setup_s = statistics.median(setup_times)

    records = untraced + (traced or [])
    reference = RootsReference(records)
    failures = []
    for rec in records:
        reason = check_op(rec, reference)
        rec["ok"] = reason is None
        if reason:
            failures.append({"op": rec["op"], "argv": rec["argv"], "reason": reason})

    metrics, detail = end_to_end(workload, untraced, summary, setup_s)
    result_metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    if args.trace:
        result_metrics = per_layer(untraced, traced, traced_summary, reference)
    record = {
        "provenance": provenance(workload, args, detail),
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "detail": detail,
        "failures": failures[:50],
        "ops": [{"argv": r["argv"], "latency_s": r["latency_s"], "ok": r["ok"],
                 "fallback": r.get("fallback", {}).get("kind")} for r in untraced],
    }
    if args.trace:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()}
        record["layers_all"] = traced_summary["trace"]["layers"]
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    correct = not failures
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(untraced)} in {detail['rounds']} rounds  "
          f"correct: {'yes' if correct else 'NO (%d failed)' % len(failures)}")
    for name, (value, unit) in result_metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  {'failed_share':48s} {detail['failed_share']:14.6g} ratio")
    if not args.trace:
        print(f"  op_tail_s is p{detail['tail_percentile']:.1f} of {detail['samples']} ops "
              f"({detail['tail_samples_beyond']} beyond)")
    for failure in failures[:5]:
        print(f"  FAILED op {failure['op']}: {' '.join(failure['argv'])}: {failure['reason']}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description="blockortho benchmark")
    parser.add_argument("--workload", required=True, nargs="+", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "blockortho" / "cli.py").is_file():
        print(f"no blockortho package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workload:
        run_workload(workload, args, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
