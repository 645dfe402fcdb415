"""Independent correctness checks of op outputs.

Nothing here imports ``blockortho``.  Moments come from closed forms as
Fractions: for ``gaussian:A`` (weight exp(-A x^2)) mu_2k = (2k-1)!! / (2A)^k
and odd moments vanish; for ``gamma:A:Z`` (weight exp(-A x) x^(Z-1) on the
half line) mu_n = Z (Z+1) ... (Z+n-1) / A^n.  Both are normalized by the
zeroth moment, as the package's outputs are.

Each checker takes an op (as generated by ``workloads``) and its captured
stdout and exit code, and returns None when the output is correct or a short
reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction

from workloads import parse_measure


def closed_form_moments(spec, max_order):
    family, alpha, z = parse_measure(spec)
    mu = [Fraction(1)]
    for n in range(1, max_order + 1):
        if family == "gaussian":
            mu.append(Fraction(0) if n % 2 else mu[n - 2] * (n - 1) / (2 * alpha))
        else:
            mu.append(mu[n - 1] * (z + n - 1) / alpha)
    return mu


def _poly_moments(coeffs, mu, count):
    """v[j] = (p, x^j) under the moment sequence mu, for j < count."""
    return [sum(c * mu[k + j] for k, c in enumerate(coeffs) if c) for j in range(count)]


def _dot(coeffs, v):
    return sum(c * v[j] for j, c in enumerate(coeffs) if c)


def check_table(op, rc, stdout):
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(stdout)
    n_size = op["N"]
    if payload.get("N") != n_size or payload.get("normalization") != op["normalization"]:
        return "header does not echo N and normalization"
    mu1 = closed_form_moments(op["measures"][0], 2 * n_size)
    mu2 = closed_form_moments(op["measures"][1], 2 * n_size)
    i_values = [op["i"]] if op["i"] is not None else range(n_size)
    expected = {f"{tag}_{i}_{n}" for i in i_values for n in range(i, n_size) for tag in "PHZ"}
    present = {k for k in payload if k[:2] in ("P_", "H_", "Z_")}
    if present != expected:
        return "table keys do not cover i..N-1 for each i"
    for i in i_values:
        monic = {}
        z_prev = Fraction(1)
        for n in range(i, n_size):
            coeffs = [Fraction(c) for c in payload[f"P_{i}_{n}"]["coeffs"]]
            if len(coeffs) != n + 1 or coeffs[n] == 0:
                return f"P_{i};{n} does not have degree {n}"
            lead = coeffs[n]
            want_lead = Fraction(1) if op["normalization"] == "monic" else z_prev
            if lead != want_lead:
                return f"P_{i};{n} leading coefficient {lead} != {want_lead}"
            p = [c / lead for c in coeffs]
            v1 = _poly_moments(p, mu1, i)
            if any(v1):
                return f"P_{i};{n} not orthogonal to x^m, m < {i}, under measure 1"
            v2 = _poly_moments(p, mu2, n + 1)
            for m in range(i, n):
                if _dot(monic[m], v2):
                    return f"P_{i};{m} and P_{i};{n} not orthogonal under measure 2"
            h = _dot(p, v2)
            if h <= 0:
                return f"P_{i};{n} has nonpositive norm"
            if Fraction(payload[f"H_{i}_{n}"]) != lead * lead * h:
                return f"H_{i};{n} is not (P, P) under measure 2"
            # The monic P are a unit-triangular change of basis from the monic
            # Q_i..Q_n, so the Gram determinant Z is the product of norms.
            z_here = z_prev * h
            if Fraction(payload[f"Z_{i}_{n}"]) != z_here:
                return f"Z_{i};{n} is not the product of the monic norms"
            monic[n], z_prev = p, z_here
    return None


def check_verify(op, rc, stdout):
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(stdout)
    reports = payload.get("reports", [])
    if [r.get("check") for r in reports] != [op["suite"]]:
        return "verify did not report exactly the requested suite"
    if not (payload.get("passed") and all(r.get("passed") for r in reports)):
        return f"suite {op['suite']} did not pass"
    return None


def check_three_subspace(op, rc, stdout):
    if rc != 0:
        return f"exit code {rc}"
    label = json.loads(stdout).get("classification")
    if label != op["expect"]:
        return f"classification {label} != documented {op['expect']}"
    return None


def roots_summary(stdout):
    """{n: (count, satisfies_theorem)} from a roots output."""
    payload = json.loads(stdout)
    return {int(k.rsplit("_", 1)[1]): (v["count"], v["satisfies_theorem"])
            for k, v in payload.items() if k.startswith("roots_")}


def check_roots(op, rc, stdout, reference):
    """Counts and flags must equal the exact reference's, degree by degree."""
    if not stdout:
        return f"exit code {rc} with no output"
    got = roots_summary(stdout)
    if got != reference:
        return "counts or satisfies_theorem flags differ from the exact reference"
    passed = all(flag for _, flag in reference.values())
    if (rc == 0) != passed:
        return f"exit code {rc} disagrees with the reported flags"
    return None


def max_coeff_bits(stdout):
    """Largest numerator or denominator bit length among 'p/q' strings."""
    best = 0

    def walk(node):
        nonlocal best
        if isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif isinstance(node, str) and node[:1] in "-0123456789" and node[-1:].isdigit():
            try:
                value = Fraction(node)
            except ValueError:
                return
            best = max(best, abs(value.numerator).bit_length(), value.denominator.bit_length())

    walk(json.loads(stdout))
    return best
