"""Seeded op generators for the three workloads.

An op is one ``blockortho`` command line, given as an argv list plus the
facts the checker needs.  A workload is a sequence of rounds, and every round
of a workload has the same mix of op shapes: command, N, i, family,
normalization and verify suite.  The seed picks the measure parameters and
the op order.

The mix is fixed because op cost depends steeply on the shape (roughly N^5
for exact tables, and falling with i), so a seeded mix of shapes would move
every percentile from seed to seed.  For the same reason the parameters are
dealt from shuffled decks: over a run, every weight pair and every gamma
power comes up about equally often, whatever the seed.  Every round deals
fresh parameters, so an argv practically never repeats inside a run, and no
result can be reused from an earlier op.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

WORKLOADS = ("table-exact", "verify-exact", "roots-float")

# Small rational weight scales and gamma powers.
ALPHAS = ("1/2", "2/3", "1", "3/2", "2", "5/2", "3")
ZS = ("1/2", "1", "3/2", "2", "3")
FAMILIES = ("gaussian", "gamma")

SUITES = (
    "orthogonality",
    "oracle_equivalence",
    "boundary_identities",
    "parity",
    "projectors",
    "recurrence",
    "inner0",
    "lemma_checkerboard",
    "integral_representations",
    "zeros",
)

# The three-subspace cases the README documents, with their classification.
README_THREE_SUBSPACE = (
    (("--z12", "1", "--z23", "2", "--z13", "3"), "Unique"),
    (("--symmetric12", "--z23", "3", "--z13", "4"), "Family(1)"),
)

# table-exact: whole tables (every i) at small N, and one-i tables at large
# N with i at a quarter and at three quarters of N.  A one-i op's cost falls
# steeply with i, so i is not drawn at random.
TABLE_ALL_I_N = (8, 8, 9, 10)
TABLE_ONE_I_N = (11, 12, 13, 14, 15, 16)

VERIFY_GROUPS = (("gaussian", 6), ("gamma", 6), ("gaussian", 8), ("gamma", 8))

ROOTS_N = (6, 8, 10, 12, 14, 16, 18, 20)

# Fewest whole rounds in an untraced run.  The tail percentile is fixed per
# workload so that even the shortest run has TAIL_BEYOND ops beyond it.
MIN_ROUNDS = {"table-exact": 4, "verify-exact": 3, "roots-float": 6}
TAIL_BEYOND = 10


class Deck:
    """Deals items in a seeded order, reshuffling after each full pass."""

    def __init__(self, rng, items):
        self.rng, self.items, self.left = rng, list(items), []

    def deal(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class Dealer:
    """The seeded source of every parameter of every op."""

    def __init__(self, rng):
        self.pairs = Deck(rng, itertools.permutations(ALPHAS, 2))
        # In verify-exact, measure 2 decays faster than measure 1, as in the
        # README's built-in pairs.  With the order reversed (A/B >= 3) the
        # zeros suite fails at the seed commit: the zero scan stops where
        # measure 1's weight drops below 1e-18 and misses zeros beyond it.
        # roots-float keeps both orders and reports roots.theorem_false_share.
        self.decaying = Deck(rng, [(a, b) for a, b in itertools.permutations(ALPHAS, 2)
                                   if Fraction(a) < Fraction(b)])
        self.zs = Deck(rng, ZS)

    def pair(self, family, decaying=False):
        a, b = (self.decaying if decaying else self.pairs).deal()
        if family == "gaussian":
            return f"gaussian:{a}", f"gaussian:{b}"
        z = self.zs.deal()
        return f"gamma:{a}:{z}", f"gamma:{b}:{z}"


def _measure_argv(m1, m2):
    return ["--measure1", m1, "--measure2", m2]


def _quarter(n, fraction):
    return min(round(fraction * n), n - 1)


def table_round(dealer, k):
    """Every shape once; round k swaps the family and the normalization of
    round k - 1.

    Families alternate over the slots, so each family takes every other
    quarter-N op.  One round is short (about 7 s at the seed commit), so a
    run stops soon after its time is up.
    """
    shapes = [(n, None) for n in TABLE_ALL_I_N]
    shapes += [(n, _quarter(n, q)) for n in TABLE_ONE_I_N for q in (0.25, 0.75)]
    swap = k % 2
    ops = []
    for slot, (n, i) in enumerate(shapes):
        family = FAMILIES[(slot + slot // 2 + swap) % 2]
        norm = ("monic", "det")[(slot // 2 + swap) % 2]
        m1, m2 = dealer.pair(family)
        argv = ["table", *_measure_argv(m1, m2), "--N", str(n), "--normalization", norm]
        if i is not None:
            argv += ["--i", str(i)]
        ops.append({"kind": "table", "argv": argv, "measures": [m1, m2], "N": n, "i": i,
                    "normalization": norm})
    return ops


def verify_round(dealer, k):
    """Every suite at every (family, N), each op on its own pair."""
    ops = []
    for family, n in VERIFY_GROUPS:
        for suite in SUITES:
            m1, m2 = dealer.pair(family, decaying=True)
            argv = ["verify", *_measure_argv(m1, m2), "--N", str(n), "--checks", suite]
            ops.append({"kind": "verify", "argv": argv, "measures": [m1, m2], "N": n,
                        "suite": suite})
    for args, label in README_THREE_SUBSPACE:
        ops.append({"kind": "three-subspace", "argv": ["three-subspace", *args],
                    "expect": label})
    return ops


def roots_round(dealer, k):
    """One op per N and family, with i at a half or at seven eighths of N.

    The two families take opposite i at each N, and round k swaps them
    against round k - 1, so two rounds hold every (N, family, i) once.  Most
    float failures come from the first stage, which does not depend on i;
    the exact re-run costs far more at small i, so i starts at N/2 to keep
    enough ops in a run.
    """
    ops = []
    for n in ROOTS_N:
        for f, family in enumerate(FAMILIES):
            m1, m2 = dealer.pair(family)
            i = _quarter(n, (0.5, 0.875)[(f + k) % 2])
            argv = ["roots", "--float", *_measure_argv(m1, m2), "--N", str(n),
                    "--i", str(i)]
            ops.append({"kind": "roots", "argv": argv, "measures": [m1, m2], "N": n,
                        "i": i})
    return ops


ROUNDS = {"table-exact": table_round, "verify-exact": verify_round,
          "roots-float": roots_round}


def rounds(workload, seed):
    """Yield the workload's rounds forever; each round is a list of ops."""
    make = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    dealer = Dealer(rng)
    for k in itertools.count():
        ops = make(dealer, k)
        rng.shuffle(ops)
        yield ops


def tail_quantile(workload):
    shortest = MIN_ROUNDS[workload] * len(next(rounds(workload, 0)))
    return 1 - TAIL_BEYOND / shortest


def parse_measure(spec):
    """('gaussian', alpha, None) or ('gamma', alpha, z) from a measure spec."""
    parts = spec.split(":")
    if parts[0] == "gaussian":
        return "gaussian", Fraction(parts[1]), None
    return "gamma", Fraction(parts[1]), Fraction(parts[2])
