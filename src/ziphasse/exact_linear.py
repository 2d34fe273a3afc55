"""Exact linear algebra over the integers.

A matrix is an immutable record of arbitrary-precision int entries with
one way in, its constructor, which checks them; its one piece of algebra is
the product.  One Smith
decomposition gives the invariant factors, the kernel, the inverse (as an
integer matrix over one denominator) and the exact ``fractions.Fraction``
solution of a linear system.  Where only the invariant factors are read,
invariant_factors finds them by the same elimination without building the
transforms.  Bareiss elimination gives the determinant, which no pipeline
module calls: the tests check det zeta, read off tau's cycles, against it.
No operation in this module ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import gcd
from operator import mul
from typing import NamedTuple, Sequence


class NonSquareError(ValueError):
    """The operation needs a square matrix."""


class SingularMatrixError(ValueError):
    """The matrix has no inverse over the rationals."""


class SelfCheckError(RuntimeError):
    """An internal consistency check failed (raised, so it also runs under -O)."""


def _check_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("integer entry expected, got %r" % (x,))
    return x


class IntMatrix:
    """Immutable integer matrix, stored row-major: a checked, hashable record.

    Every matrix, the pipeline's too, is built through __init__, which
    checks each entry's type and the entry count.  The one product,
    __mul__, serves the oracle functions enumerate_weyl, positive_roots and
    rational_inverse; the pipeline only builds matrices and reads their rows.
    """

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(entries)
        # one pass over the types; the slow loop names the first bad entry
        if set(map(type, entries)) - {int}:
            for x in entries:
                _check_int(x)
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError("entry count does not match shape %dx%d" % (rows, cols))
        self.rows, self.cols, self.entries, self._hash = rows, cols, entries, None

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]):
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("from_rows needs at least one row; use %s(0, n, ())"
                             % cls.__name__)
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int):
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __mul__(self, other: "IntMatrix"):
        """Row i is the combination sum_k a_ik * (row k of other) with the
        zero a_ik skipped, so the cost follows the nonzeros of ``self``: a
        signed permutation times an n x n matrix costs O(n^2).
        """
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        c, n = self.cols, other.cols
        rows = [other.entries[k * n:(k + 1) * n] for k in range(other.rows)]
        out = []
        for i in range(self.rows):
            acc = [0] * n
            for a, row in zip(self.entries[i * c:(i + 1) * c], rows):
                if a:
                    acc = [x + a * y for x, y in zip(acc, row)]
            out.extend(acc)
        return IntMatrix(self.rows, n, out)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.entries))
        return self._hash

    def __repr__(self) -> str:
        return "%s(%d, %d, %r)" % (type(self).__name__, self.rows, self.cols,
                                   list(self.entries))

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]


class SmithDecomposition(NamedTuple):
    """Unimodular U and V with U * M * V = D, and V_inv = V^-1.

    D is diagonal, its nonzero entries the invariant factors: positive,
    each dividing the next, with zero diagonal entries (if any) coming
    last.  D itself is not kept: it is diag(invariant_factors) padded with
    zeros to the shape of M.
    """

    U: IntMatrix
    V: IntMatrix
    invariant_factors: tuple
    V_inv: IntMatrix


def _pivot(a: list, t: int):
    """(row, col) of the nonzero entry of least |x| in the block a[t:][t:],
    the lowest in row-major order among ties, or None for a zero block.

    An entry +-1 is minimal, and the first one met is the lowest, so the
    scan stops there: on sparse unit-rich blocks it reads a few rows.
    compress skips the zero entries without a Python step each.
    """
    best, at = None, None
    for i in range(t, len(a)):
        row = a[i]
        for j in compress(range(t, len(row)), row[t:]):
            x = row[j]
            if best is None or abs(x) < best:
                if x == 1 or x == -1:
                    return i, j
                best, at = abs(x), (i, j)
    return at


def _identity_rows(n: int) -> list:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def smith_normal_form(mat: IntMatrix) -> SmithDecomposition:
    """Smith normal form by exact integer row/column reduction.

    Pivot choice: the nonzero entry of minimal absolute value in the
    remaining block, ties broken by lowest (row, col) (see _pivot).  This
    makes the output deterministic for a fixed input.  A unit pivot divides
    everything, so the divisibility rescan is skipped for it.

    U and V^-1 change by row operations and are kept as rows; V changes by
    column operations and is kept as its columns.  Rows above t are zero
    from column t on, so a column swap at step t touches rows t.. only, and
    the column pass runs once the row pass has cleared column t below the
    pivot, so its column operations change the pivot row of ``mat`` alone.
    """
    m, n = mat.rows, mat.cols
    a = mat.to_rows()
    u = _identity_rows(m)
    v_cols = _identity_rows(n)
    v_inv = _identity_rows(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(t, j):
        for r in range(t, m):
            row = a[r]
            row[t], row[j] = row[j], row[t]
        v_cols[t], v_cols[j] = v_cols[j], v_cols[t]
        v_inv[t], v_inv[j] = v_inv[j], v_inv[t]

    def add_row(src, dst, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(t, dst, k):
        a[t][dst] += k * a[t][t]
        v_cols[dst] = [x + k * y for x, y in zip(v_cols[dst], v_cols[t])]
        v_inv[t] = [x - k * y for x, y in zip(v_inv[t], v_inv[dst])]

    t = 0
    while t < min(m, n):
        at = _pivot(a, t)
        if at is None:
            break
        pi, pj = at
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(t, i, -q)
                    if a[i][t] != 0:
                        # remainder is smaller than the pivot; promote it
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            # column t is now zero below the pivot, and column operations
            # leave it so: after this pass row t is zero beyond the pivot
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            # the pivot must divide the remaining block for d_i | d_{i+1}
            piv = a[t][t]
            if piv == 1 or piv == -1:
                break
            rem = piv.__rmod__  # rem(x) is x % piv
            bad = next((i for i in range(t + 1, m)
                        if any(map(rem, a[i][t + 1:]))), None)
            if bad is None:
                break
            add_row(bad, t, 1)
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            u[i] = [-x for x in u[i]]

    diag = [abs(a[i][i]) for i in range(min(m, n))]
    factors = tuple(d for d in diag if d != 0)
    # nonzero entries come first; anything else is a bug in the loop above
    if any(diag[len(factors):]):
        raise SelfCheckError("zero diagonal entries of the Smith form are not last")
    flat = chain.from_iterable
    return SmithDecomposition(
        U=IntMatrix(m, m, flat(u)),
        V=IntMatrix(n, n, flat(zip(*v_cols))),
        invariant_factors=factors,
        V_inv=IntMatrix(n, n, flat(v_inv)),
    )


def invariant_factors(mat: IntMatrix) -> tuple:
    """smith_normal_form(mat).invariant_factors, without U, V or V^-1.

    The pivots are chosen by the same rule, _pivot, and each step clears the pivot's column
    by row operations, but the matrix alone is changed.  Column t is then
    zero below the pivot, so a column operation would change row t alone,
    which no later step reads: the pivot row is only reduced modulo the
    pivot, and a nonzero remainder is swapped in as the next pivot.  Nor is
    the pivot made to divide the rest of the block.  The diagonal d is put
    in normal form afterwards: Z/a + Z/b is Z/gcd + Z/lcm, and once every
    pair i < j has been replaced so, each d_i divides d_j.  Units divide
    everything and are set aside; the loop stops at a zero block, so no
    zero is on the diagonal.
    """
    m, n = mat.rows, mat.cols
    a = mat.to_rows()
    diag = []
    for t in range(min(m, n)):
        at = _pivot(a, t)
        if at is None:
            break
        pi, pj = at
        a[t], a[pi] = a[pi], a[t]
        while True:
            if pj != t:
                for r in range(t, m):
                    row = a[r]
                    row[t], row[pj] = row[pj], row[t]
            piv = a[t][t]
            i = t + 1
            while i < m:
                x = a[i][t]
                if x:
                    q = x // piv
                    if q:
                        a[i] = [y - q * z for y, z in zip(a[i], a[t])]
                    if a[i][t]:
                        # the remainder is smaller than the pivot; promote
                        # it and reduce the old pivot row by it
                        a[t], a[i] = a[i], a[t]
                        piv = a[t][t]
                        continue
                i += 1
            if piv == 1 or piv == -1:
                break
            row = a[t]
            pj = next((j for j in range(t + 1, n) if row[j] % piv), t)
            if pj == t:
                break
            row[pj] %= piv
        diag.append(abs(piv))
    units = diag.count(1)
    rest = sorted(d for d in diag if d != 1)
    for i, x in enumerate(rest):
        for j in range(i + 1, len(rest)):
            y = rest[j]
            if y % x:
                g = gcd(x, y)
                x, rest[j] = g, y // g * x
        rest[i] = x
    return (1,) * units + tuple(rest)


def determinant(mat: IntMatrix) -> int:
    """Exact determinant (sign preserved) via Bareiss elimination.

    Step k sends a row i below the pivot to (a_kk * row_i - a_ik * row_k)
    / prev, one comprehension per row.  A row with a_ik = 0 is only scaled
    by a_kk / prev, and left alone when a_kk == prev, so rows that the
    pivot column misses cost little on a sparse matrix.  Columns before k
    are zero in every row from k on, so whole rows can be combined.
    """
    if mat.rows != mat.cols:
        raise NonSquareError("determinant of a %dx%d matrix" % (mat.rows, mat.cols))
    n = mat.rows
    if n == 0:
        return 1
    a = mat.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        akk = pivot_row[k]
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            if aik:
                a[i] = [(x * akk - aik * y) // prev for x, y in zip(row, pivot_row)]
            elif akk != prev:
                a[i] = [x * akk // prev for x in row]
        prev = akk
    return sign * a[n - 1][n - 1]


def rational_inverse(mat: IntMatrix) -> tuple:
    """(N, d) with mat * N = d * I: the exact inverse of mat is N / d.

    With U * mat * V = D the Smith form, mat^-1 = V * D^-1 * U, so N is
    V * diag(d / d_i) * U for d the largest invariant factor.  d is the
    exponent of coker mat, which is the least common denominator of mat^-1:
    N / d is in lowest terms.
    """
    if mat.rows != mat.cols:
        raise NonSquareError("inverse of a %dx%d matrix" % (mat.rows, mat.cols))
    snf = smith_normal_form(mat)
    factors = snf.invariant_factors
    if len(factors) < mat.cols:
        raise SingularMatrixError("columns are not linearly independent")
    d = factors[-1] if factors else 1
    n = mat.rows
    scaled_u = IntMatrix(n, n, [d // f * x for i, f in enumerate(factors)
                                for x in snf.U.row(i)])
    return snf.V * scaled_u, d


def solve_rational(mat: IntMatrix, target: Sequence) -> tuple:
    """Unique exact solution x of mat @ x = target, as Fractions.

    With U * mat * V = D the Smith form, x = V * y where y_i = (U t)_i / d_i.
    Requires the columns of ``mat`` to be linearly independent and the system
    to be consistent, that is (U t)_i = 0 past the rank; otherwise
    SingularMatrixError is raised.
    """
    if len(target) != mat.rows:
        raise ValueError("target length does not match row count")
    snf = smith_normal_form(mat)
    factors = snf.invariant_factors
    if len(factors) < mat.cols:
        raise SingularMatrixError("columns are not linearly independent")
    U, V = snf.U, snf.V
    ut = [sum(map(mul, U.row(i), target)) for i in range(U.rows)]
    if any(ut[len(factors):]):
        raise SingularMatrixError("inconsistent system")
    y = [Fraction(x, f) for x, f in zip(ut, factors)]
    return tuple([sum(map(mul, V.row(i), y)) for i in range(V.rows)])


def kernel_basis(mat: IntMatrix) -> IntMatrix:
    """Basis (as rows) of the saturated integer kernel {x : mat @ x = 0}."""
    snf = smith_normal_form(mat)
    rank, n, v = len(snf.invariant_factors), mat.cols, snf.V.entries
    # the rows are columns rank.. of V, strided slices of its entries
    return IntMatrix(n - rank, n, chain.from_iterable(
        v[j::n] for j in range(rank, n)))
