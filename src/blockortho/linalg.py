"""Small dense linear algebra over exact rationals and floats.

Matrices are lists (or tuples) of rows.  Exact determinants use
fraction-free Bareiss elimination on primitive integer rows (denominators
and row contents cleared), so intermediate swell stays bounded, and one
such pass over a Gram matrix gives the bordered minors of every leading
block, each degree then taking only its back substitution; float
determinants delegate to numpy.
Rank decisions in the exact backend are genuinely discrete; the float path
reports the singular-value gap it used.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm, prod
from operator import mul

from ._numpy import np
from .scalars import EXACT, FLOAT, kind_of, one, zero


_KIND_OF_TYPE = {Fraction: EXACT, int: EXACT, float: FLOAT}


def matrix_kind(matrix):
    """EXACT or FLOAT for a matrix of one scalar kind; EXACT when empty.

    Entries are classified by their set of types, so a matrix costs one pass
    of ``type`` calls.  Any other type (bool, numpy scalars, subclasses)
    sends the matrix through ``kind_of`` entry by entry, which accepts or
    rejects it as it does a single scalar.
    """
    kinds = {_KIND_OF_TYPE.get(t) for t in set(map(type, chain.from_iterable(matrix)))}
    if None in kinds:
        kinds = {kind_of(x) for row in matrix for x in row}
    if not kinds:
        return EXACT
    if len(kinds) > 1:
        from .errors import KindMismatch

        raise KindMismatch("matrix mixes exact and float entries")
    return kinds.pop()


def lift(values):
    """Integers ``ints`` and a positive integer ``scale`` with
    values[k] = ints[k] / scale, for rational ``values``.

    ``scale`` is the lcm of the denominators, and each entry is taken as
    ``numerator * (scale // denominator)``, so no Fraction arithmetic is done.
    """
    ratios = [x.as_integer_ratio() for x in values]
    scale = lcm(*[q for _, q in ratios])
    if scale == 1:
        return [p for p, _ in ratios], 1
    return [p * (scale // q) for p, q in ratios], scale


def _lift_rows(rows):
    """Primitive integer rows and their scales: each row is :func:`lift`-ed
    and divided by the gcd of its integers (its content), so row r times
    ``scales[r]``, a positive Fraction, is ``ints[r]``.  Dividing out the
    content keeps every minor of the integer rows smaller by the product of
    the contents it spans."""
    ints, scales = [], []
    for row in rows:
        lifted, scale = lift(row)
        content = gcd(*lifted) or 1
        ints.append([x // content for x in lifted] if content > 1 else lifted)
        scales.append(Fraction(scale, content))
    return ints, scales


def _eliminate(m):
    """Fraction-free (Bareiss) elimination of the integer rows ``m``, in place.

    ``m`` has at least as many columns as rows.  Step k divides by the
    previous pivot, which is exact, and swaps a lower row up only when the
    pivot m[k][k] vanishes.  Until the first such step, row k holds, in each
    column j >= k, the minor of the input on rows 0..k and columns
    0..k-1, j, so the pivots are its leading minors (Bareiss's prefix
    property).  Entries left of the diagonal are not cleared.  Returns
    ``(sign, steps, first_zero)``: the sign of the row permutation, the
    number of pivots found (fewer than the rows when a column has none) and
    the step of the first vanishing pivot (None if none vanished).
    """
    n = len(m)
    sign, prev, first_zero = 1, 1, None
    for k in range(n):
        if not m[k][k]:
            if first_zero is None:
                first_zero = k
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return sign, k, first_zero
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot_row = m[k]
        pivot = pivot_row[k]
        tail = pivot_row[k + 1 :]
        for row in m[k + 1 :]:
            x = row[k]
            if x:
                row[k + 1 :] = [(a * pivot - x * b) // prev for a, b in zip(row[k + 1 :], tail)]
            else:
                row[k + 1 :] = [a * pivot // prev for a in row[k + 1 :]]
        prev = pivot
    return sign, n, first_zero


def _back_substitute(m, n, lead):
    """The integers c_0..c_n with c_n = ``lead`` and, for k < n,
    sum_{j >= k} m[k][j] c_j = 0: the fraction-free back substitution of
    the reduced rows 0..n-1 restricted to columns 0..n.  Each division is
    exact because the c_k are minors; a remainder raises ArithmeticError.
    """
    c = [0] * n + [lead]
    for k in range(n - 1, -1, -1):
        row = m[k]
        c[k], rest = divmod(-sum(map(mul, row[k + 1 : n + 1], c[k + 1 :])), row[k])
        if rest:
            raise ArithmeticError(f"inexact back substitution at column {k}")
    return c


def _det_int(rows):
    """Determinant of a nonempty square integer matrix."""
    m = [list(r) for r in rows]
    sign, steps, _ = _eliminate(m)
    return sign * m[-1][-1] if steps == len(m) else 0


def _cofactors_int(top):
    """Signed maximal minors c_k = (-1)^(n+k) det(top without column k).

    ``top`` is an n x (n+1) integer matrix.  Its own elimination (row swaps
    among these n rows) makes it upper triangular; c_n is the leading minor
    and the others follow by :func:`_back_substitute`.  A column without a
    pivot (a singular leading block with rank below n) leaves the minors to
    be taken one by one.
    """
    n = len(top)
    m = [list(r) for r in top]
    sign, steps, _ = _eliminate(m)
    if steps < n:
        return [
            (-1) ** (n + j) * _det_int([row[:j] + row[j + 1 :] for row in top])
            for j in range(n + 1)
        ]
    return _back_substitute(m, n, sign * (m[n - 1][n - 1] if n else 1))


class LiftedElimination:
    """One fraction-free elimination of an exact square matrix, read degree
    by degree.

    The rows are lifted to primitive integer rows once (:func:`_lift_rows`):
    ``rows[r]`` is row r times ``scales[r]``, the lcm of its denominators
    over the content of its lifted integers, and ``prefix[k]`` is
    scales[0] * ... * scales[k-1], both Fractions.  One :func:`_eliminate`
    pass reduces them; by the prefix property its rows 0..n-1, restricted to columns
    0..n, are the reduced n x (n+1) system of the leading block, so each
    degree n costs only its O(n^2) back substitution.  From the first
    vanishing pivot on (a singular leading block), a degree takes its own
    elimination instead (:func:`_cofactors_int`).  Minors and cofactors are
    those of the lifted rows: divided by ``prefix[k]`` (k the number of rows
    they span) they are those of the matrix.
    """

    def __init__(self, matrix):
        self.rows, self.scales = _lift_rows(matrix)
        self._reduced = [list(r) for r in self.rows]
        first_zero = _eliminate(self._reduced)[2]
        self._clean = len(self.rows) if first_zero is None else first_zero
        self._cofactors = {}

    @cached_property
    def prefix(self):
        return list(accumulate(self.scales, mul, initial=1))

    def minor(self, k):
        """Leading k x k minor of the lifted rows (1 for k = 0)."""
        if k <= self._clean:
            return self._reduced[k - 1][k - 1] if k else 1
        if k == self._clean + 1:
            return 0
        return sum(map(mul, self.rows[k - 1], self.cofactors(k - 1)))

    def cofactors(self, n):
        """Signed cofactors c_k = (-1)^(n+k) det(lifted rows 0..n-1 without
        column k) of the leading (n+1)-column block, k = 0..n; c_n is the
        leading minor of size n.  Each degree is solved once."""
        if n not in self._cofactors:
            if n <= self._clean:
                self._cofactors[n] = _back_substitute(self._reduced, n, self.minor(n))
            else:
                self._cofactors[n] = _cofactors_int([row[: n + 1] for row in self.rows[:n]])
        return self._cofactors[n]


def det(matrix):
    """Determinant; exact for rational entries, numpy LU for floats.

    The empty 0x0 matrix has determinant one (null-determinant convention).
    A matrix of plain ``int`` entries is eliminated as it is, with no
    lifting.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if set(map(type, chain.from_iterable(matrix))) == {int}:
        return Fraction(_det_int(matrix))
    if matrix_kind(matrix) == FLOAT:
        return float(np.linalg.det(np.array(matrix, dtype=float)))
    int_rows, scales = _lift_rows(matrix)
    return Fraction(_det_int(int_rows), prod(scales))


def bordered_minors(block, elimination=None):
    """Signed cofactors of the last row of a square exact block, and its
    determinant.

    For an (n+1) x (n+1) ``block`` returns ``(c, det(block))`` with
    c_k = (-1)^(n+k) det(first n rows without column k), so c_n is the
    leading minor Z_n, det(block) = Z_{n+1} = sum_k block[n][k] c_k, and c
    spans the null space of the first n rows whenever Z_n != 0.  Both are
    read off one :class:`LiftedElimination`: ``elimination``, that of any
    matrix with ``block`` as its leading block (by the prefix property), or
    else one of ``block``.  A float entry is read as the dyadic rational it
    holds (:func:`lift`), so float blocks get the same exact minors.
    """
    n = len(block) - 1
    elim = LiftedElimination(block) if elimination is None else elimination
    c = elim.cofactors(n)
    whole = Fraction(elim.minor(n + 1), elim.prefix[n + 1])
    return tuple(Fraction(x, elim.prefix[n]) for x in c), whole


def leading_minors(matrix):
    """Determinants of the leading k x k blocks, k = 0..n (index 0 is 1),
    all read off one :class:`LiftedElimination` (a float entry as the
    dyadic rational it holds)."""
    elim = LiftedElimination(matrix)
    return [Fraction(elim.minor(k), elim.prefix[k]) for k in range(len(matrix) + 1)]


def mat_mul(a, b):
    """The product a b, every entry summed over ascending inner index.

    Exact factors lift each row of ``a`` and each column of ``b`` to
    integers once (:func:`lift`) and take each entry as one integer dot
    product over the index range where both have nonzero entries, divided
    once by the two scales, so every entry is one ``Fraction``.  Otherwise
    zero entries of either factor are skipped, so a triangular factor costs
    only its nonzero part.  Each such sum starts from the backend zero of
    ``a``, so an entry without a nonzero term is that zero, and a float
    entry equals the full ascending sum bit for bit (adding a zero to a sum
    begun at +0.0 never changes it).
    """
    cols = len(b[0]) if b else 0
    kind = matrix_kind(a)
    if kind == EXACT and set(map(type, chain.from_iterable(b))) <= {Fraction, int}:
        return _exact_mat_mul(a, b)
    start = zero(kind)
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y != 0] for row in b]
    out = []
    for row in a:
        acc = [start] * cols
        for x, b_row in zip(row, b_nonzero):
            if x != 0:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def _lifted_span(values):
    """(ints, scale, lo, hi): ``values`` :func:`lift`-ed, and the range
    lo..hi-1 outside which every entry vanishes (lo = hi when all do)."""
    ints, scale = lift(values)
    nonzero = [k for k, x in enumerate(ints) if x]
    return ints, scale, nonzero[0] if nonzero else 0, nonzero[-1] + 1 if nonzero else 0


def _exact_mat_mul(a, b):
    """The product of two exact matrices, one integer dot product and one
    Fraction per entry."""
    return _lifted_mat_mul(list(map(_lifted_span, a)), list(map(_lifted_span, zip(*b))))


def _lifted_mat_mul(a_rows, b_cols, skip=0):
    """The product of the exact matrices whose rows are ``a_rows``, from
    column ``skip`` on, and whose columns are ``b_cols``, each given as
    :func:`_lifted_span` gives it: each entry is one integer dot product
    over the index range where both factors have nonzero entries, divided
    once by the two scales.  A factor shared by several products, or read by
    a check, is lifted once for all of them."""
    empty = zero(EXACT)
    out = []
    for x, x_scale, x_lo, x_hi in a_rows:
        out_row = []
        for y, y_scale, y_lo, y_hi in b_cols:
            lo, hi = max(x_lo, y_lo + skip), min(x_hi, y_hi + skip)
            if lo < hi:
                dot = sum(map(mul, x[lo:hi], y[lo - skip : hi - skip]))
                out_row.append(Fraction(dot, x_scale * y_scale))
            else:
                out_row.append(empty)
        out.append(out_row)
    return out


def inverse_upper(a, first=0, columns=None):
    """The inverse of the trailing block a[first:, first:] of the upper
    triangular ``a``, in place of that block in an otherwise zero matrix,
    as row tuples.  Exact blocks go row by row in integers: with column n
    lifted to u_n / s_n (``columns``, as :func:`_lifted_span` gives them,
    when the caller holds an exact block lifted), row m of x a = I is
    x_{m,m} = s_m / u_m[m] and x_{m,n} = -(sum_{j<n} x_{m,j} u_n[j]) / u_n[n],
    kept as coprime integers over one denominator, so each entry is one
    integer dot product and one Fraction.  Float blocks take LAPACK's LU
    solve, which on a triangular matrix swaps no rows and is back
    substitution."""
    size = len(a)
    if columns is None:
        block = [row[first:] for row in a[first:]]
        if matrix_kind(a) == FLOAT:
            out = np.zeros((size, size))
            if block:
                inverse = np.linalg.solve(np.array(block), np.eye(size - first))
                out[first:, first:] = np.triu(inverse)
            return tuple(map(tuple, out.tolist()))
        columns = [_lifted_span(col) for col in zip(*block)]
    nil = zero(EXACT)
    rows = [(nil,) * size] * first
    for m, (u_m, s_m, _, _) in enumerate(columns):
        g = gcd(s_m, u_m[m])
        ints, den = [s_m // g], u_m[m] // g  # x_{m,m}, x_{m,m+1}, ...
        for u, _, _, _ in columns[m + 1 :]:
            t = -sum(map(mul, ints, u[m:]))
            g = gcd(t, u[m + len(ints)])
            t, e = t // g, u[m + len(ints)] // g
            if e != 1:
                ints = [y * e for y in ints]
                den *= e
            ints.append(t)
        rows.append((nil,) * (first + m) + tuple(Fraction(y, den) for y in ints))
    return tuple(rows)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def identity(n, kind=EXACT):
    return [[one(kind) if i == j else zero(kind) for j in range(n)] for i in range(n)]


def rref(matrix):
    """Reduced row-echelon form over Fractions; returns (rows, pivot_columns)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank_exact(matrix):
    if not matrix or not matrix[0]:
        return 0
    _, pivots = rref(matrix)
    return len(pivots)


def nullspace_exact(matrix):
    """Basis of the right null space (list of column vectors of Fractions)."""
    if not matrix:
        return []
    n_cols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n_cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def solve_exact(matrix, rhs):
    """Particular solution of A x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    n_rows = len(matrix)
    if n_rows == 0:
        return []
    n_cols = len(matrix[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    rows, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][n_cols]
    return x


def rank_float(matrix, rel_gap=1e-10):
    """(rank, gap) from singular values; gap is s[rank]/s[0] (0 when full)."""
    a = np.array(matrix, dtype=float)
    if a.size == 0:
        return 0, 0.0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0, 0.0
    rel = s / s[0]
    rank = int(np.sum(rel > rel_gap))
    gap = float(rel[rank]) if rank < len(s) else 0.0
    return rank, gap
