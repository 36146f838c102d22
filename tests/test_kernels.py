"""The integer kernels of ``@``, ``rank_normal_form`` and ``kronecker``
against oracles that compute one boxed GaussianRational at a time.

The rank normal form is pinned to its pivot rule, so the kernel must
return the very same Q, P and rank as the scalar elimination, not merely
a valid factorization.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from ginv.kron import kronecker
from ginv.matrix import ExactMatrix, rank_normal_form
from ginv.scalar import GaussianRational, ZERO

from oracles import kronecker_by_scalars, matmul_by_scalars, rnf_by_scalars

TEN_DIGITS = 10 ** 10 - 1

components = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.builds(Fraction, st.integers(-TEN_DIGITS, TEN_DIGITS),
              st.integers(1, TEN_DIGITS)),
)
scalars = st.one_of(
    st.just(ZERO),
    st.builds(GaussianRational, components),
    st.builds(GaussianRational, components, components),
)
dims = st.integers(0, 6)


@st.composite
def matrices(draw, m, n):
    """An m x n matrix; half the time of rank below min(m, n), built as
    a product through a narrower inner dimension."""
    if not (m and n):
        return ExactMatrix.empty(m, n)
    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n) - 1))
        if k == 0:
            return ExactMatrix.zeros(m, n)
        return matmul_by_scalars(draw(matrices(m, k)), draw(matrices(k, n)))
    return ExactMatrix([[draw(scalars) for _ in range(n)] for _ in range(m)])


@st.composite
def any_matrix(draw):
    return draw(matrices(draw(dims), draw(dims)))


@st.composite
def product_pair(draw):
    m, k, n = draw(dims), draw(dims), draw(dims)
    return draw(matrices(m, k)), draw(matrices(k, n))


@settings(max_examples=150, deadline=None)
@given(any_matrix())
@example(ExactMatrix.empty(0, 0))
@example(ExactMatrix.empty(0, 4))
@example(ExactMatrix.empty(3, 0))
@example(ExactMatrix.zeros(3, 5))
@example(ExactMatrix([[0, "1+i"], ["2-i", 0]]))
def test_rank_normal_form_equals_scalar_elimination(A):
    rnf = rank_normal_form(A)
    assert rnf == rnf_by_scalars(A)
    assert rnf.q.shape == (A.rows, A.rows) and rnf.p.shape == (A.cols, A.cols)


@settings(max_examples=150, deadline=None)
@given(product_pair())
@example((ExactMatrix.empty(0, 3), ExactMatrix.zeros(3, 2)))
@example((ExactMatrix.empty(2, 0), ExactMatrix.empty(0, 3)))
@example((ExactMatrix.zeros(2, 3), ExactMatrix.empty(3, 0)))
def test_matmul_equals_scalar_products(pair):
    A, B = pair
    product = A @ B
    assert product == matmul_by_scalars(A, B)
    assert product.shape == (A.rows, B.cols)


@st.composite
def kronecker_pair(draw):
    small = st.integers(0, 4)
    return (draw(matrices(draw(small), draw(small))),
            draw(matrices(draw(small), draw(small))))


@settings(max_examples=100, deadline=None)
@given(kronecker_pair())
@example((ExactMatrix.empty(0, 3), ExactMatrix.zeros(2, 2)))
@example((ExactMatrix.zeros(2, 2), ExactMatrix.empty(3, 0)))
@example((ExactMatrix([[0, "1+i"], ["2-i", "1/3"]]),
          ExactMatrix([["i", "-5/7"], [0, "3-2/9i"]])))
def test_kronecker_equals_scalar_blocks(pair):
    A, B = pair
    product = kronecker(A, B)
    assert product == kronecker_by_scalars(A, B)
    assert product.shape == (A.rows * B.rows, A.cols * B.cols)
