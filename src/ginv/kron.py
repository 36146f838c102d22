"""Kronecker products and row-major vectorization.

Flattening X row by row turns the two-sided equation A*X*B = C into the
ordinary linear system (A (x) B^T) * vec(X) = vec(C): that identity, with
B transposed, is specific to the row-major vec used here.
"""

from __future__ import annotations

from .errors import ShapeError
from .linsys import AffineSolution, solve_right
from .matrix import ExactMatrix, _kronecker

__all__ = ["VecIndexMap", "kronecker", "vec", "mat", "solve_axb_via_kron"]


class VecIndexMap:
    """Bijection between 1-based positions (i, j) of an m x n matrix and
    1..m*n under row-major flattening."""

    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("VecIndexMap is immutable")

    def to_flat(self, i: int, j: int) -> int:
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise IndexError(f"position ({i},{j}) outside {self.m}x{self.n}")
        return (i - 1) * self.n + j

    def to_position(self, k: int):
        if not (1 <= k <= self.m * self.n):
            raise IndexError(f"flat index {k} outside 1..{self.m * self.n}")
        # ceil(k/n) and ((k-1) mod n) + 1; the naive k mod n breaks at
        # multiples of n.
        return (k - 1) // self.n + 1, (k - 1) % self.n + 1


def kronecker(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A (x) B: the block matrix with (i, j) block a_ij * B."""
    return _kronecker(A, B)


def vec(X: ExactMatrix) -> ExactMatrix:
    """Row-major flattening of X into a column vector."""
    if not (X.rows and X.cols):
        return ExactMatrix.empty(X.rows * X.cols, 1)
    return ExactMatrix.column([X.entry(i, j)
                               for i in range(1, X.rows + 1)
                               for j in range(1, X.cols + 1)])


def mat(v: ExactMatrix, m: int, n: int) -> ExactMatrix:
    """Inverse of vec: reshape an m*n column back into an m x n matrix."""
    if v.shape != (m * n, 1):
        raise ShapeError("mat reshape", v.shape, (m * n, 1))
    if not (m and n):
        return ExactMatrix.empty(m, n)
    index = VecIndexMap(m, n)
    rows = [[None] * n for _ in range(m)]
    for k in range(1, m * n + 1):
        p, q = index.to_position(k)
        rows[p - 1][q - 1] = v.entry(k, 1)
    return ExactMatrix(rows)


def solve_axb_via_kron(A: ExactMatrix, B: ExactMatrix,
                       C: ExactMatrix) -> AffineSolution:
    """General solution of A*X*B = C as an affine set over vec(X).

    Members x of the returned set satisfy A*mat(x)*B = C; inconsistency
    propagates from the underlying linear solve.
    """
    if C.shape != (A.rows, B.cols):
        raise ShapeError("A*X*B = C shapes", C.shape, (A.rows, B.cols))
    return solve_right(kronecker(A, B.T), vec(C))
