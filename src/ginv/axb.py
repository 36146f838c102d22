"""Consistency and general solutions of A*X*B = C.

The equation is consistent iff A*G_A*C*G_B*B = C for {1}-inverses G_A,
G_B (any choice gives the same verdict).  Every solution then arises as

    g(Y) = X0 + Y - L*Y*R,    L = G_A*A,  R = B*G_B,

for arbitrary Y.  The map g is idempotent (g(g(Y)) = g(Y), which makes
the parametrization "reproductive": every solution is its own parameter)
exactly when X0 = L*X0*R, i.e. when X0 is itself of the form G_A*C*G_B.
The five classical one-sided and two-sided special cases are exposed in
both their historical form and the reproductive variant.
"""

from __future__ import annotations

from .errors import ContractError, InconsistentEquationError, ShapeError
from .matrix import ExactMatrix, rank
from .oneinv import family_from, is_one_inverse

__all__ = ["GeneralSolutionMap", "CASES", "case_equation", "consistency_check",
           "penrose_general_solution", "shifted_general_solution",
           "presic_solution", "haveric_solution", "solution_dimension"]

# The five special cases of X equations over a square A.
CASES = ("AX=0", "AX=A", "XA=0", "XA=A", "AXA=A")


class GeneralSolutionMap:
    """The map g(Y) = X0 + Y - L*Y*R over n x p matrices Y.

    L and R must be idempotent; then the image of g is the affine set
    X0 + {Y - L*Y*R} and g is idempotent iff X0 = L*X0*R.
    """

    __slots__ = ("X0", "L", "R")

    def __init__(self, X0: ExactMatrix, L: ExactMatrix, R: ExactMatrix):
        if L.shape != (X0.rows, X0.rows):
            raise ShapeError("left projector", L.shape, (X0.rows, X0.rows))
        if R.shape != (X0.cols, X0.cols):
            raise ShapeError("right projector", R.shape, (X0.cols, X0.cols))
        if L @ L != L or R @ R != R:
            raise ContractError("solution-map projectors must be idempotent")
        object.__setattr__(self, "X0", X0)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "R", R)

    def __setattr__(self, name, value):
        raise AttributeError("GeneralSolutionMap is immutable")

    @property
    def shape(self):
        return self.X0.shape

    def apply(self, Y: ExactMatrix) -> ExactMatrix:
        """g(Y) = X0 + Y - L*Y*R."""
        if Y.shape != self.X0.shape:
            raise ShapeError("solution-map argument", Y.shape, self.X0.shape)
        return self.X0 + Y - self.L @ Y @ self.R

    def is_reproductive(self) -> bool:
        """True iff g is idempotent, tested as the finite identity
        X0 = L*X0*R (the argument-independent part of g(g(Y)) - g(Y))."""
        return self.L @ self.X0 @ self.R == self.X0

    def __eq__(self, other):
        if not isinstance(other, GeneralSolutionMap):
            return NotImplemented
        return (self.X0, self.L, self.R) == (other.X0, other.L, other.R)

    def __hash__(self):
        return hash((self.X0, self.L, self.R))


def _checked_inverses(A, B, A1, B1):
    if A1 is None:
        A1 = family_from(A).canonical()
    elif not is_one_inverse(A, A1):
        raise ContractError("supplied A1 is not a {1}-inverse of A")
    if B1 is None:
        B1 = family_from(B).canonical()
    elif not is_one_inverse(B, B1):
        raise ContractError("supplied B1 is not a {1}-inverse of B")
    return A1, B1


def consistency_check(A: ExactMatrix, B: ExactMatrix, C: ExactMatrix,
                      A1: ExactMatrix = None, B1: ExactMatrix = None) -> bool:
    """True iff A*A1*C*B1*B = C.

    The verdict does not depend on which {1}-inverses are supplied; None
    selects the canonical zero-block members.  Supplying matrices that
    fail the {1}-inverse test is an error, not a False verdict.
    """
    if C.shape != (A.rows, B.cols):
        raise ShapeError("A*X*B = C shapes", C.shape, (A.rows, B.cols))
    A1, B1 = _checked_inverses(A, B, A1, B1)
    return A @ A1 @ C @ B1 @ B == C


def penrose_general_solution(A: ExactMatrix, B: ExactMatrix,
                             C: ExactMatrix) -> GeneralSolutionMap:
    """The reproductive general solution with X0 = A1*C*B1.

    Uses the canonical {1}-inverses; raises on an inconsistent equation,
    carrying the residual A*A1*C*B1*B - C.
    """
    if C.shape != (A.rows, B.cols):
        raise ShapeError("A*X*B = C shapes", C.shape, (A.rows, B.cols))
    A1, B1 = _checked_inverses(A, B, None, None)
    X0 = A1 @ C @ B1
    residual = A @ X0 @ B - C
    if not residual.is_zero():
        raise InconsistentEquationError(
            "A*X*B = C is inconsistent: A*A1*C*B1*B differs from C",
            residual=residual)
    return GeneralSolutionMap(X0, A1 @ A, B @ B1)


def shifted_general_solution(A: ExactMatrix, B: ExactMatrix, C: ExactMatrix,
                             X0: ExactMatrix) -> GeneralSolutionMap:
    """The general solution anchored at a caller-chosen particular X0.

    The returned map still sweeps every solution, but is reproductive
    only when X0 happens to equal A1*C*B1 for some {1}-inverses.
    """
    if C.shape != (A.rows, B.cols):
        raise ShapeError("A*X*B = C shapes", C.shape, (A.rows, B.cols))
    if X0.shape != (A.cols, B.rows):
        raise ShapeError("particular solution", X0.shape, (A.cols, B.rows))
    if A @ X0 @ B != C:
        raise ContractError("X0 is not a solution of A*X*B = C")
    A1, B1 = _checked_inverses(A, B, None, None)
    return GeneralSolutionMap(X0, A1 @ A, B @ B1)


def case_equation(A: ExactMatrix, case: str):
    """The (A_eq, B_eq, C_eq) triple meant by a special-case label."""
    n = A.rows
    I = ExactMatrix.identity(n)
    Z = ExactMatrix.zeros(n, n)
    table = {
        "AX=0": (A, I, Z),
        "AX=A": (A, I, A),
        "XA=0": (I, A, Z),
        "XA=A": (I, A, A),
        "AXA=A": (A, A, A),
    }
    if case not in table:
        raise ContractError(f"unknown case {case!r}; expected one of {CASES}")
    return table[case]


def _case_maps(A: ExactMatrix, B1: ExactMatrix, case: str):
    if not A.is_square():
        raise ShapeError("special cases need a square matrix", A.shape)
    if not is_one_inverse(A, B1):
        raise ContractError("supplied B1 is not a {1}-inverse of A")
    n = A.rows
    I = ExactMatrix.identity(n)
    BA = B1 @ A
    AB = A @ B1
    # case -> (historical X0, reproductive X0, L, R)
    table = {
        "AX=0": (ExactMatrix.zeros(n, n), ExactMatrix.zeros(n, n), BA, I),
        "AX=A": (I, BA, BA, I),
        "XA=0": (ExactMatrix.zeros(n, n), ExactMatrix.zeros(n, n), I, AB),
        "XA=A": (I, AB, I, AB),
        "AXA=A": (B1, BA @ B1, BA, AB),
    }
    if case not in table:
        raise ContractError(f"unknown case {case!r}; expected one of {CASES}")
    return table[case]


def presic_solution(A: ExactMatrix, B1: ExactMatrix,
                    case: str) -> GeneralSolutionMap:
    """Historical general solution of one special case.

    The anchors are I (one-sided nonzero cases) or B1 itself (two-sided
    case); the resulting maps solve their equations but are generally
    not reproductive.
    """
    x0_hist, _, L, R = _case_maps(A, B1, case)
    return GeneralSolutionMap(x0_hist, L, R)


def haveric_solution(A: ExactMatrix, B1: ExactMatrix,
                     case: str) -> GeneralSolutionMap:
    """Reproductive variant of each special case.

    Same projectors as presic_solution, but anchored at projections
    (B1*A, A*B1, B1*A*B1) so that X0 = L*X0*R holds and the map fixes
    every solution of its equation.
    """
    _, x0_rep, L, R = _case_maps(A, B1, case)
    return GeneralSolutionMap(x0_rep, L, R)


def solution_dimension(gs: GeneralSolutionMap) -> int:
    """Dimension of the affine solution set swept by the map.

    The homogeneous part is the image of Y -> Y - L*Y*R, whose kernel
    corresponds to the Kronecker projector L (x) R^T of rank
    rank(L)*rank(R); hence the count n*p - rank(L)*rank(R).
    """
    n, p = gs.shape
    return n * p - rank(gs.L) * rank(gs.R)
