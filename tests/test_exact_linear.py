import itertools
import math
import random

import pytest
from _oracles import (apply, cofactor_det, full_scan_smith_normal_form, gauss_jordan,
                      matmul, minors_invariant_factors, scalar, transpose)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ziphasse.exact_linear import (
    IntMatrix,
    NonSquareError,
    SingularMatrixError,
    determinant,
    invariant_factors,
    kernel_basis,
    rational_inverse,
    smith_normal_form,
    solve_rational,
)
from fractions import Fraction


def mat(rows):
    return IntMatrix.from_rows(rows)


def smith_diagonal(m, snf):
    """The shape of m with the invariant factors of snf on its diagonal and
    zeros everywhere else: what U * m * V must equal."""
    factors = snf.invariant_factors
    return IntMatrix(m.rows, m.cols, [factors[i] if i == j and i < len(factors) else 0
                                      for i in range(m.rows) for j in range(m.cols)])


# matrices used across the smith/determinant/inverse tests
HB_D2_Q2 = mat([[1, -2], [-2, 1]])
HB_D3_Q2 = mat([[1, -2, 0], [0, 1, -2], [-2, 0, 1]])
UNITARY3_Q3 = mat([[1, 0, 3], [0, 4, 0], [3, 0, 1]])


class TestSmithNormalForm:
    def test_hb_matrix(self):
        assert smith_normal_form(HB_D2_Q2).invariant_factors == (1, 3)

    def test_identity(self):
        for n in (1, 2, 5):
            snf = smith_normal_form(IntMatrix.identity(n))
            assert snf.invariant_factors == (1,) * n

    def test_unitary3(self):
        # verified against the minors-gcd definition below
        snf = smith_normal_form(UNITARY3_Q3)
        assert snf.invariant_factors == (1, 4, 8)
        assert snf.invariant_factors == minors_invariant_factors(
            UNITARY3_Q3.to_rows())

    def test_transforms_reconstruct(self):
        for m in (HB_D2_Q2, HB_D3_Q2, UNITARY3_Q3,
                  mat([[0, 0], [0, 0]]), mat([[6, 4, 2], [2, 8, 4]])):
            snf = smith_normal_form(m)
            assert snf.U * m * snf.V == smith_diagonal(m, snf)
            assert abs(determinant(snf.U)) == 1
            assert abs(determinant(snf.V)) == 1
            assert snf.V * snf.V_inv == IntMatrix.identity(m.cols)

    def test_divisibility_chain(self):
        snf = smith_normal_form(mat([[2, 0], [0, 3]]))
        assert snf.invariant_factors == (1, 6)

    def test_zero_and_empty(self):
        for m in (IntMatrix(2, 3, [0] * 6), IntMatrix(0, 3, ())):
            snf = smith_normal_form(m)
            assert snf.invariant_factors == ()
            assert snf.V == snf.V_inv == IntMatrix.identity(3)

    def test_random_matrices_against_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            m = IntMatrix(rows, cols,
                          [rng.randrange(-6, 7) for _ in range(rows * cols)])
            snf = smith_normal_form(m)
            assert snf.U * m * snf.V == smith_diagonal(m, snf)
            assert abs(determinant(snf.U)) == 1
            assert abs(determinant(snf.V)) == 1
            assert snf.V * snf.V_inv == IntMatrix.identity(cols)
            assert snf.invariant_factors == minors_invariant_factors(m.to_rows(), cols)
            for a, b in zip(snf.invariant_factors, snf.invariant_factors[1:]):
                assert b % a == 0
            # transpose invariance
            assert smith_normal_form(transpose(m)).invariant_factors == \
                snf.invariant_factors

    def test_product_of_factors_is_abs_det(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 5)
            m = IntMatrix(n, n, [rng.randrange(-5, 6) for _ in range(n * n)])
            det = determinant(m)
            snf = smith_normal_form(m)
            prod = 1
            for f in snf.invariant_factors:
                prod *= f
            if det != 0:
                assert prod == abs(det)


@st.composite
def dense_matrix(draw):
    """A dense matrix of any shape up to 6 x 6, 0 x n and m x 0 included,
    some of whose rows are zero or combinations of earlier rows."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = draw(st.sampled_from((st.integers(-2, 2), st.integers(-9, 9),
                                  st.integers(-2**70, 2**70))))
    body = []
    for i in range(rows):
        kind = draw(st.sampled_from(("draw", "draw", "zero", "combine")))
        if kind == "zero":
            body.append([0] * cols)
        elif kind == "combine" and body:
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            x, y = draw(st.sampled_from(body)), draw(st.sampled_from(body))
            body.append([a * u + b * v for u, v in zip(x, y)])
        else:
            body.append(draw(st.lists(entry, min_size=cols, max_size=cols)))
    return IntMatrix(rows, cols, [x for row in body for x in row])


class TestInvariantFactors:
    @settings(max_examples=300, deadline=None, database=None)
    @given(dense_matrix())
    def test_match_the_smith_form(self, m):
        factors = smith_normal_form(m).invariant_factors
        assert invariant_factors(m) == factors
        assert invariant_factors(transpose(m)) == factors

    def test_every_empty_and_zero_shape(self):
        for rows, cols in itertools.product(range(4), repeat=2):
            assert invariant_factors(IntMatrix(rows, cols, [0] * (rows * cols))) == ()

    def test_a_diagonal_needs_the_gcd_lcm_step(self):
        assert invariant_factors(mat([[2, 0], [0, 3]])) == (1, 6)
        assert invariant_factors(mat([[4, 0], [0, 6]])) == (2, 12)
        assert invariant_factors(mat([[0, 0, 6], [0, -10, 0], [15, 0, 0]])) == (1, 30, 30)

    @pytest.mark.parametrize("q", (3, 4, 9))
    def test_a_scalar_matrix_has_no_unit_pivot(self, q):
        # (1 - q) I_k is the twist matrix of a split Levi
        for k in range(21):
            m = scalar(k, 1 - q)
            assert invariant_factors(m) == (q - 1,) * k
            assert smith_normal_form(m).invariant_factors == (q - 1,) * k


class TestDeterminant:
    def test_hb_d3(self):
        assert determinant(HB_D3_Q2) == -7

    def test_identity(self):
        assert determinant(IntMatrix.identity(4)) == 1
        assert determinant(IntMatrix(0, 0, ())) == 1

    def test_unitary3(self):
        # cofactor expansion by hand: 1*(4-0) - 0 + 3*(0-12) = -32
        assert determinant(UNITARY3_Q3) == -32
        assert determinant(UNITARY3_Q3) == cofactor_det(UNITARY3_Q3.to_rows())

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            determinant(IntMatrix(2, 3, [0] * 6))

    def test_random_against_cofactor(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randrange(1, 5)
            m = IntMatrix(n, n, [rng.randrange(-7, 8) for _ in range(n * n)])
            assert determinant(m) == cofactor_det(m.to_rows())


class TestRationalInverse:
    def test_hb_d2(self):
        # the inverse is [[-1/3, -2/3], [-2/3, -1/3]]
        assert rational_inverse(HB_D2_Q2) == (mat([[-1, -2], [-2, -1]]), 3)

    def test_identity(self):
        assert rational_inverse(IntMatrix.identity(3)) == (IntMatrix.identity(3), 1)

    def test_scalar(self):
        assert rational_inverse(scalar(2, 1 - 5)) == (scalar(2, -1), 4)

    def test_empty(self):
        assert rational_inverse(IntMatrix(0, 0, ())) == (IntMatrix(0, 0, ()), 1)

    def test_singular(self):
        with pytest.raises(SingularMatrixError, match="not linearly independent"):
            rational_inverse(mat([[1, 2], [2, 4]]))

    def test_non_square(self):
        with pytest.raises(NonSquareError, match="inverse of a 2x3 matrix"):
            rational_inverse(IntMatrix(2, 3, [0] * 6))

    def test_round_trip_exact(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randrange(1, 5)
            m = IntMatrix(n, n, [rng.randrange(-6, 7) for _ in range(n * n)])
            if determinant(m) == 0:
                continue
            inverse, d = rational_inverse(m)
            assert m * inverse == scalar(n, d)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.integers(-6, 6), min_size=n * n, max_size=n * n).map(
            lambda entries: IntMatrix(n, n, entries))))
    def test_matches_gauss_jordan_in_lowest_terms(self, m):
        if determinant(m) == 0:
            with pytest.raises(SingularMatrixError):
                rational_inverse(m)
            return
        inverse, d = rational_inverse(m)
        assert d == (smith_normal_form(m).invariant_factors or (1,))[-1]
        assert m * inverse == scalar(m.rows, d)
        assert math.gcd(d, *inverse.entries) == 1
        if m.rows:
            identity = IntMatrix.identity(m.rows).to_rows()
            assert gauss_jordan(m.to_rows(), identity) == [
                [Fraction(x, d) for x in row] for row in inverse.to_rows()]


@st.composite
def full_column_rank(draw):
    """A matrix with independent columns: the rows of a nonsingular square
    block and of up to three more random rows, shuffled."""
    cols = draw(st.integers(0, 4))
    extra = draw(st.integers(0, 3))
    entry = st.integers(-5, 5)
    top = IntMatrix(cols, cols, draw(st.lists(entry, min_size=cols * cols,
                                              max_size=cols * cols)))
    assume(determinant(top) != 0)
    rows = top.to_rows() + [draw(st.lists(entry, min_size=cols, max_size=cols))
                            for _ in range(extra)]
    rows = draw(st.permutations(rows))
    return IntMatrix(len(rows), cols, [x for row in rows for x in row])


class TestSolveAndKernel:
    def test_solve_unique(self):
        m = mat([[1, 0], [0, 2], [1, 1]])
        x = solve_rational(m, (3, 4, 5))
        assert x == (Fraction(3), Fraction(2))
        assert all(type(v) is Fraction for v in x)

    def test_solve_inconsistent(self):
        m = mat([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(SingularMatrixError, match="inconsistent system"):
            solve_rational(m, (0, 0, 1))

    def test_solve_dependent_columns(self):
        m = mat([[1, 2], [2, 4], [3, 6]])
        with pytest.raises(SingularMatrixError, match="not linearly independent"):
            solve_rational(m, (1, 2, 3))

    def test_solve_length_mismatch(self):
        with pytest.raises(ValueError, match="target length"):
            solve_rational(mat([[1, 0], [0, 1]]), (1, 2, 3))

    def test_solve_refuses_a_float_target(self):
        with pytest.raises(TypeError):
            solve_rational(mat([[1, 0], [0, 2]]), (0.5, 1))

    @settings(max_examples=200, deadline=None, database=None)
    @given(full_column_rank(), st.data())
    def test_solve_random_full_column_rank(self, m, data):
        # a consistent target, integral or Fraction-valued, is solved exactly
        x = tuple(data.draw(st.lists(
            st.one_of(st.integers(-9, 9), st.fractions(max_denominator=7)),
            min_size=m.cols, max_size=m.cols)))
        target = apply(m, x)
        got = solve_rational(m, target)
        assert got == x
        assert all(type(v) is Fraction for v in got)
        if m.rows > m.cols:
            # a nonzero k with m^T k = 0 is orthogonal to the column span, so
            # target + k lies off it
            k = kernel_basis(transpose(m)).row(0)
            with pytest.raises(SingularMatrixError, match="inconsistent system"):
                solve_rational(m, [t + y for t, y in zip(target, k)])

    def test_kernel_is_saturated(self):
        m = mat([[1, -1, 0], [0, 1, -1]])
        basis = kernel_basis(m)
        assert basis.rows == 1
        v = basis.row(0)
        assert abs(v[0]) == 1 and v[0] == v[1] == v[2]

    def test_kernel_of_empty(self):
        basis = kernel_basis(IntMatrix(0, 4, ()))
        assert basis == IntMatrix.identity(4)


class TestMatrixBasics:
    def test_no_floats(self):
        with pytest.raises(TypeError):
            IntMatrix(1, 1, [1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="entry count"):
            IntMatrix(2, 2, [1, 2, 3])

    def test_repr_and_empty_from_rows(self):
        assert repr(mat([[1, 2], [3, 4]])) == "IntMatrix(2, 2, [1, 2, 3, 4])"
        with pytest.raises(ValueError, match=r"use IntMatrix\(0, n, \(\)\)"):
            IntMatrix.from_rows([])

    def test_product_with_the_identity(self):
        m = mat([[1, 2], [3, 4]])
        assert (m * IntMatrix.identity(2)) == m


# Entries straddle the machine-word range on both sides, so a kernel that
# truncated or overflowed anywhere would disagree with the oracle.
SMALL = st.integers(-2, 2)
WIDE = st.one_of(st.integers(-2, 2), st.integers(2**64, 2**80),
                 st.integers(-2**80, -2**64))
DIMS = st.integers(0, 5)


@st.composite
def dense(draw, rows, cols, entries=WIDE):
    return [draw(entries) for _ in range(rows * cols)]


@st.composite
def signed_permutation(draw, n):
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return [signs[i] if j == perm[i] else 0 for i in range(n) for j in range(n)]


@st.composite
def int_pair(draw):
    """(left, right) with left a signed permutation or dense, right dense."""
    r, k, c = draw(DIMS), draw(DIMS), draw(DIMS)
    if draw(st.booleans()):
        left = IntMatrix(k, k, draw(signed_permutation(k)))
    else:
        left = IntMatrix(r, k, draw(dense(r, k, draw(st.sampled_from((SMALL, WIDE))))))
    return left, IntMatrix(k, c, draw(dense(k, c)))


class TestKernelsAgainstOracle:
    SETTINGS = settings(max_examples=100, deadline=None, database=None)

    @SETTINGS
    @given(int_pair())
    def test_int_product(self, pair):
        left, right = pair
        product = left * right
        assert (product.rows, product.cols) == (left.rows, right.cols)
        assert list(product.entries) == matmul(left, right)

    @SETTINGS
    @given(int_pair())
    def test_integer_results_equal_checked_constructions(self, pair):
        # the unchecked constructor builds what the public one would
        left, right = pair
        got = left * right
        assert type(got) is IntMatrix
        assert got == IntMatrix(got.rows, got.cols, list(got.entries))
        assert type(got.entries) is tuple
        assert set(map(type, got.entries)) <= {int}

    def test_every_empty_shape(self):
        for r, k, c in itertools.product(range(3), repeat=3):
            left = IntMatrix(r, k, list(range(1, r * k + 1)))
            right = IntMatrix(k, c, list(range(1, k * c + 1)))
            assert list((left * right).entries) == matmul(left, right)

    def test_shape_mismatch_errors_are_unchanged(self):
        a = mat([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="shape mismatch in matrix product"):
            a * IntMatrix(3, 1, [1, 2, 3])


@st.composite
def sparse_matrix(draw, square=False, max_dim=7):
    """A matrix with entries in {0, +-1, +-2, +-q}, mostly zero."""
    rows = draw(st.integers(0, max_dim))
    cols = rows if square else draw(st.integers(0, max_dim))
    q = draw(st.sampled_from((3, 4, 5, 9, 27)))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2, q, -q))
    return IntMatrix(rows, cols, draw(st.lists(entry, min_size=rows * cols,
                                               max_size=rows * cols)))


class TestSparseShortcuts:
    SETTINGS = settings(max_examples=300, deadline=None, database=None)

    @SETTINGS
    @given(sparse_matrix())
    def test_smith_form_matches_the_full_scan(self, m):
        # the unit shortcuts must keep U, V and V^-1, not only the factors
        snf = smith_normal_form(m)
        assert snf == full_scan_smith_normal_form(m)
        assert snf.U * m * snf.V == smith_diagonal(m, snf)
        assert snf.V * snf.V_inv == IntMatrix.identity(m.cols)

    @SETTINGS
    @given(sparse_matrix())
    def test_invariant_factors_match_the_smith_form(self, m):
        assert invariant_factors(m) == smith_normal_form(m).invariant_factors

    @SETTINGS
    @given(sparse_matrix(square=True, max_dim=6))
    def test_determinant_matches_cofactor_expansion(self, m):
        assert determinant(m) == cofactor_det(m.to_rows())
