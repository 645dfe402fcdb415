"""Command line interface.

Subcommands: ``table`` (polynomial tables), ``verify`` (check suites),
``roots`` (zero reports), ``projector`` (projector matrices),
``three-subspace`` (the two-constraint existence problem) and ``moments``.
Exit codes: 0 success, 1 failed check, 2 usage error.

Exact-backend output is deterministic byte for byte: keys are sorted and
rationals are serialized as 'p/q' strings.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import verification
from .analysis import zero_reports
from .block import build_sbo, build_sbos
from .errors import BlockOrthoError, NonPositiveParameter
from .measures import (
    Measure,
    load_moments_csv,
    load_moments_json,
    measure_to_json,
    moments,
)
from .multiblock import FAMILY, NO_SOLUTION, UNIQUE, appendix_b_laguerre
from .projectors import projectors_from_q, projectors_from_second
from .scalars import EXACT, FLOAT, scalar_to_json
from .standard import MONIC, build_standard


def parse_measure(spec: str) -> Measure:
    """Measure from a compact spec: 'gaussian:A', 'gamma:A:Z' or 'file:PATH'."""
    parts = spec.split(":")
    if parts[0] == "gaussian" and len(parts) == 2:
        return Measure.gaussian(parts[1])
    if parts[0] == "gamma" and len(parts) == 3:
        return Measure.gamma_weight(parts[1], parts[2])
    if parts[0] == "file" and len(parts) >= 2:
        return _load_moments_file(spec.split(":", 1)[1])
    raise argparse.ArgumentTypeError(f"cannot parse measure spec {spec!r}")


def _measure_pair(args):
    if args.pair == "hermite":
        return Measure.gaussian(1), Measure.gaussian(2)
    if args.pair == "laguerre":
        z = args.z if args.z is not None else Fraction(1)
        return Measure.gamma_weight(1, z), Measure.gamma_weight(2, z)
    if args.moments_file:
        m1 = _load_moments_file(args.moments_file)
    elif args.measure1:
        m1 = parse_measure(args.measure1)
    else:
        m1 = None
    m2 = parse_measure(args.measure2) if args.measure2 else None
    if m1 is not None and m2 is not None:
        return m1, m2
    raise SystemExit2("need --pair or (--measure1/--moments-file and --measure2)")


def _load_moments_file(path):
    if path.endswith(".json"):
        return load_moments_json(path)
    return load_moments_csv(path)


class SystemExit2(SystemExit):
    def __init__(self, message):
        print(json.dumps({"error": message}, sort_keys=True), file=sys.stderr)
        super().__init__(2)


class _Parser(argparse.ArgumentParser):
    """Argument errors are usage errors: JSON on stderr, exit code 2."""

    def error(self, message):
        raise SystemExit2(f"{self.prog}: {message}")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _emit(args, payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if getattr(args, "csv", False):
        text = _flatten_csv(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten_csv(payload):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict) and "coeffs" in value:
            writer.writerow([key, " ".join(str(c) for c in value["coeffs"])])
        else:
            writer.writerow([key, json.dumps(value, sort_keys=True)])
    return buf.getvalue()


def cmd_table(args):
    m1, m2 = _measure_pair(args)
    backend = FLOAT if args.float else EXACT
    i_values = [args.i] if args.i is not None else list(range(args.N))
    payload = {
        "N": args.N,
        "backend": backend,
        "normalization": args.normalization,
        "measures": [measure_to_json(m1), measure_to_json(m2)],
    }
    bases = build_sbos(m1, m2, i_values, args.N, normalization=args.normalization, backend=backend)
    for i, basis in bases.items():
        for n in basis.degrees():
            key = f"P_{i}_{n}"
            payload[key] = {
                "coeffs": [scalar_to_json(c) for c in basis.poly(n).coeffs]
            }
            payload[f"H_{i}_{n}"] = scalar_to_json(basis.norm(n))
            payload[f"Z_{i}_{n}"] = scalar_to_json(basis.Z(n))
    _emit(args, payload)
    return 0


def cmd_verify(args):
    m1, m2 = _measure_pair(args)
    backend = FLOAT if args.float else EXACT
    names = args.checks.split(",") if args.checks else None
    reports = verification.run_checks(
        m1, m2, n_size=args.N, i_max=args.i_max, backend=backend, names=names
    )
    ok = all(r["passed"] for r in reports)
    payload = {
        "backend": backend,
        "N": args.N,
        "passed": ok,
        "reports": [_jsonable(r) for r in sorted(reports, key=lambda r: r["check"])],
    }
    _emit(args, payload)
    return 0 if ok else 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return scalar_to_json(obj)
    return obj


def cmd_roots(args):
    m1, m2 = _measure_pair(args)
    backend = FLOAT if args.float else EXACT
    i_values = [args.i] if args.i is not None else list(range(args.N))
    payload = {"N": args.N}
    ok = True
    bases = build_sbos(m1, m2, i_values, args.N, backend=backend)
    for report in zero_reports(bases.values()):
        ok = ok and report.satisfies_theorem
        payload[f"roots_{report.i}_{report.n}"] = {
            "count": report.count,
            "satisfies_theorem": report.satisfies_theorem,
            "brackets": [[float(a), float(b)] for a, b in report.brackets],
        }
    payload["passed"] = ok
    _emit(args, payload)
    return 0 if ok else 1


def cmd_projector(args):
    m1, m2 = _measure_pair(args)
    backend = FLOAT if args.float else EXACT
    if args.route == "q":
        onto, comp = projectors_from_q(build_standard(m1, args.N, backend=backend), args.i)
    else:
        onto, comp = projectors_from_second(build_sbo(m1, m2, 0, args.N, backend=backend), args.i)
    payload = {
        "i": args.i,
        "N": args.N,
        "route": args.route,
        "onto_constraint": [[scalar_to_json(x) for x in row] for row in onto.entries],
        "onto_complement": [[scalar_to_json(x) for x in row] for row in comp.entries],
    }
    _emit(args, payload)
    return 0


def cmd_three_subspace(args):
    if args.z12 is None and not args.symmetric12:
        raise SystemExit2("need --z12 unless --symmetric12 is given")
    solution = appendix_b_laguerre(
        args.z12, args.z23, args.z13, symmetric12=args.symmetric12
    )
    label = {UNIQUE: "Unique", NO_SOLUTION: "NoSolution", FAMILY: "Family"}[
        solution.classification
    ]
    if solution.classification == FAMILY:
        label = f"Family({solution.free_parameters})"
    payload = {
        "classification": label,
        "rank": solution.rank,
        "augmented_ranks": list(solution.augmented_ranks),
        "basis": [p.to_json() for p in solution.basis],
        "particular": [p.to_json() for p in solution.particular],
        "kernel": [p.to_json() for p in solution.kernel],
    }
    _emit(args, _jsonable(payload))
    return 0


def cmd_moments(args):
    if args.moments_file:
        measure = _load_moments_file(args.moments_file)
    elif args.measure:
        measure = parse_measure(args.measure)
    else:
        raise SystemExit2("need --measure or --moments-file")
    backend = FLOAT if args.float else EXACT
    seq = moments(measure, args.max_order, backend=backend)
    payload = {
        "c0": seq.c0 if isinstance(seq.c0, float) else scalar_to_json(seq.c0),
        "c0_symbol": seq.c0_symbol,
        "exact": seq.exact,
        "mu": [scalar_to_json(m) for m in seq.mu],
    }
    _emit(args, payload)
    return 0


def _add_measure_flags(parser, need_pair=True):
    parser.add_argument("--pair", choices=["hermite", "laguerre"], help="built-in measure pair")
    parser.add_argument("--z", type=Fraction, default=None, help="power parameter for the laguerre pair")
    parser.add_argument("--measure1", help="first measure spec, e.g. gaussian:1")
    parser.add_argument("--measure2", help="second measure spec, e.g. gaussian:2")
    parser.add_argument("--moments-file", help="CSV (n,mu_n) or JSON moment table for the first measure")
    backend = parser.add_mutually_exclusive_group()
    backend.add_argument("--float", action="store_true", help="use the float backend")
    backend.add_argument("--exact", action="store_true", help="use the exact backend (default)")
    parser.add_argument("--out", help="write output to a file instead of stdout")
    parser.add_argument("--csv", action="store_true", help="flatten the JSON payload to CSV")


# built on the first ``main`` call, not at import; parsing leaves the parser unchanged
@functools.cache
def build_parser():
    parser = _Parser(
        prog="blockortho",
        description="Block orthogonal polynomial bases from pairs of positive measures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit polynomial tables with norms and determinants")
    _add_measure_flags(p_table)
    p_table.add_argument("--N", type=_positive_int, required=True)
    p_table.add_argument("--i", type=int, default=None)
    p_table.add_argument("--normalization", choices=["monic", "orthonormal", "det"], default=MONIC)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run the cross-validation suites")
    _add_measure_flags(p_verify)
    p_verify.add_argument("--N", type=_positive_int, default=8)
    p_verify.add_argument("--i-max", type=_nonnegative_int, default=4)
    p_verify.add_argument("--checks", help="comma-separated subset of checks")
    p_verify.set_defaults(func=cmd_verify)

    p_roots = sub.add_parser("roots", help="sign-change reports for built bases")
    _add_measure_flags(p_roots)
    p_roots.add_argument("--N", type=_positive_int, required=True)
    p_roots.add_argument("--i", type=int, default=None)
    p_roots.set_defaults(func=cmd_roots)

    p_proj = sub.add_parser("projector", help="projector matrices in monomial coordinates")
    _add_measure_flags(p_proj)
    p_proj.add_argument("--N", type=_positive_int, required=True)
    p_proj.add_argument("--i", type=int, required=True)
    p_proj.add_argument("--route", choices=["q", "second"], default="q")
    p_proj.set_defaults(func=cmd_projector)

    p_three = sub.add_parser("three-subspace", help="two-constraint-block existence problem")
    p_three.add_argument("--z12", type=Fraction, default=None)
    p_three.add_argument("--z23", type=Fraction, required=True)
    p_three.add_argument("--z13", type=Fraction, required=True)
    p_three.add_argument("--symmetric12", action="store_true",
                         help="first cross inner product symmetric about the origin")
    p_three.add_argument("--out", help="write output to a file instead of stdout")
    p_three.add_argument("--csv", action="store_true")
    p_three.set_defaults(func=cmd_three_subspace)

    p_mom = sub.add_parser("moments", help="emit a measure's normalized moments")
    p_mom.add_argument("--measure", help="measure spec, e.g. gamma:1:2")
    p_mom.add_argument("--moments-file")
    p_mom.add_argument("--max-order", type=int, required=True)
    p_mom.add_argument("--float", action="store_true")
    p_mom.add_argument("--out")
    p_mom.add_argument("--csv", action="store_true")
    p_mom.set_defaults(func=cmd_moments)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit2:
        return 2
    except BlockOrthoError as exc:
        line = {"error": str(exc), "kind": type(exc).__name__}
        for key in ("stage", "degree", "condition", "limit"):
            value = getattr(exc, key, None)
            if value is not None:
                # strict JSON has no Infinity: a refused non-finite condition prints as "inf"
                finite = not isinstance(value, float) or math.isfinite(value)
                line[key] = value if finite else str(value)
        print(json.dumps(line, sort_keys=True), file=sys.stderr)
        # a non-positive weight parameter is a bad argument, not a failed check
        return 2 if isinstance(exc, NonPositiveParameter) else 1
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
