"""General solutions of A*x = c and x*B = c through one {1}-inverse.

For A of shape m x n and rank a, write Q*A*P = E_a.  With c' = Q*c the
system A*x = c is consistent iff the last m - a coordinates of c' vanish,
and then

    x = P * [c'_1, ..., c'_a, 0, ..., 0]^T  +  (last n - a columns of P) * t

sweeps the full solution set as t ranges over all of C^(n-a).  The same
set is also swept by x = G*c with G running over the {1}-inverses of A
whose V block has its j-th column free (j the first index with c'_j != 0)
and zeros elsewhere; the derivation trace records that form.
"""

from __future__ import annotations

from .errors import ContractError, InconsistentSystemError, ShapeError
from .matrix import ExactMatrix, RankNormalForm, rank_normal_form
from .oneinv import family_from
from .poly import Poly, SymMatrix, fresh_variables
from .scalar import ZERO, as_scalar

__all__ = ["AffineSolution", "SolveTrace", "solve_right", "solve_left",
           "general_inverse_solution", "sweep_block"]


class SolveTrace:
    """Intermediates of one rank-normal-form solve.

    pivot is the 1-based first index j with c'_j != 0, or None for a
    homogeneous right-hand side (then the sweep form is skipped).
    """

    __slots__ = ("rnf", "c_prime", "tail", "pivot", "sweep_form")

    def __init__(self, rnf: RankNormalForm, c_prime: ExactMatrix,
                 tail: ExactMatrix, pivot, sweep_form):
        object.__setattr__(self, "rnf", rnf)
        object.__setattr__(self, "c_prime", c_prime)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "sweep_form", sweep_form)

    def __setattr__(self, name, value):
        raise AttributeError("SolveTrace is immutable")


class AffineSolution:
    """particular + span(directrix), the full solution set of one system.

    For side "right" the directrix columns span the homogeneous solutions
    of A*x = 0; for side "left" its rows span those of x*B = 0.
    """

    __slots__ = ("particular", "directrix", "dimension", "side", "trace")

    def __init__(self, particular: ExactMatrix, directrix: ExactMatrix,
                 dimension: int, side: str, trace: SolveTrace):
        if side not in ("right", "left"):
            raise ContractError(f"unknown side {side!r}")
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "directrix", directrix)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "trace", trace)

    def __setattr__(self, name, value):
        raise AttributeError("AffineSolution is immutable")

    def member(self, t) -> ExactMatrix:
        """particular + directrix * t for a parameter vector t."""
        t = ExactMatrix.column(t) if not isinstance(t, ExactMatrix) else t
        if self.dimension == 0:
            if t.rows * t.cols:
                raise ShapeError("affine member", t.shape, (0, 1))
            return self.particular
        if self.side == "right":
            if t.shape != (self.dimension, 1):
                raise ShapeError("affine member", t.shape, (self.dimension, 1))
            return self.particular + self.directrix @ t
        if t.shape not in ((self.dimension, 1), (1, self.dimension)):
            raise ShapeError("affine member", t.shape, (1, self.dimension))
        t = t if t.rows == 1 else t.T
        return self.particular + t @ self.directrix

    def contains(self, x: ExactMatrix) -> bool:
        """Exact membership: x - particular must lie in the directrix span.

        Decided by solving directrix * t = x - particular (transposed for
        the left side), not by plugging x back into the original system.
        """
        if x.shape != self.particular.shape:
            raise ShapeError("affine membership", x.shape, self.particular.shape)
        residual = x - self.particular
        if self.dimension == 0:
            return residual.is_zero()
        span = self.directrix if self.side == "right" else self.directrix.T
        target = residual if self.side == "right" else residual.T
        try:
            solve_right(span, target)
        except InconsistentSystemError:
            return False
        return True


def _reduced_rhs(rnf: RankNormalForm, c: ExactMatrix):
    """c' = Q*c split at the rank into (c', head, tail).

    Raises InconsistentSystemError when the tail is nonzero.
    """
    c_prime = rnf.q @ c
    head = c_prime.take_rows(1, rnf.rank)
    tail = c_prime.take_rows(rnf.rank + 1, c_prime.rows)
    if not tail.is_zero():
        raise InconsistentSystemError(
            "system A*x = c is inconsistent: Q*c has a nonzero tail", tail=tail)
    return c_prime, head, tail


def _check_rhs(A: ExactMatrix, c: ExactMatrix):
    if c.shape != (A.rows, 1):
        raise ShapeError("solve_right right-hand side", c.shape, (A.rows, 1))


def _sweep_form(c_prime_head: ExactMatrix, pivot: int, n_free: int) -> SymMatrix:
    """The V block with column `pivot` holding v_i / c'_pivot, zeros elsewhere.

    Multiplying this V by the head of c' gives t_i = v_i, so the free
    variables sweep the directrix coordinates directly.
    """
    a = c_prime_head.rows
    scale = c_prime_head.entry(pivot, 1).inverse()
    params = fresh_variables([f"v_{{{i},{pivot}}}" for i in range(1, n_free + 1)])
    rows = []
    for i in range(n_free):
        row = [Poly.zero()] * a
        row[pivot - 1] = Poly.variable(params[i]) * scale
        rows.append(row)
    return SymMatrix(rows)


def sweep_block(sol: AffineSolution, targets) -> ExactMatrix:
    """Numeric V block steering general_inverse_solution to member(targets)."""
    trace = sol.trace
    if trace.pivot is None:
        raise ContractError("sweep form needs a nonzero right-hand side")
    a = trace.rnf.rank
    n_free = sol.dimension
    targets = list(targets)
    if len(targets) != n_free:
        raise ShapeError("sweep targets", (len(targets), 1), (n_free, 1))
    if not (n_free and a):
        return ExactMatrix.empty(n_free, a)
    scale = trace.c_prime.entry(trace.pivot, 1).inverse()
    rows = [[ZERO] * a for _ in range(n_free)]
    for i, t in enumerate(targets):
        rows[i][trace.pivot - 1] = as_scalar(t) * scale
    return ExactMatrix(rows)


def solve_right(A: ExactMatrix, c: ExactMatrix) -> AffineSolution:
    """General solution of A*x = c, or InconsistentSystemError.

    The particular solution is P*[c'_head; 0]; the directrix is the last
    n - a columns of P, which A annihilates since Q*A*P = E_a.
    """
    _check_rhs(A, c)
    rnf = rank_normal_form(A)
    a = rnf.rank
    n = A.cols
    c_prime, head, tail = _reduced_rhs(rnf, c)
    pivot = next((j for j in range(1, a + 1) if head.entry(j, 1)), None)
    padded = ExactMatrix.block([[head], [ExactMatrix.zeros(n - a, 1)]]) \
        if n - a else head
    if n == 0:
        particular = ExactMatrix.empty(0, 1)
    else:
        particular = rnf.p @ padded
    directrix = rnf.p.take_columns(a + 1, n)
    sweep = _sweep_form(head, pivot, n - a) if pivot and n - a else None
    trace = SolveTrace(rnf, c_prime, tail, pivot, sweep)
    return AffineSolution(particular, directrix, n - a, "right", trace)


def solve_left(B: ExactMatrix, c: ExactMatrix) -> AffineSolution:
    """General solution of x*B = c via the transposed right-side problem."""
    if c.shape != (1, B.cols):
        raise ShapeError("solve_left right-hand side", c.shape, (1, B.cols))
    mirrored = solve_right(B.T, c.T)
    return AffineSolution(mirrored.particular.T, mirrored.directrix.T,
                          mirrored.dimension, "left", mirrored.trace)


def general_inverse_solution(A: ExactMatrix, c: ExactMatrix,
                             V: ExactMatrix) -> ExactMatrix:
    """x = G*c for the {1}-inverse G with the given V block (U = W = 0).

    Only V matters: U and W multiply the zero tail of c' = Q*c.  Requires
    a consistent system, decided from that tail as in solve_right.
    """
    _check_rhs(A, c)
    fam = family_from(A)
    _reduced_rhs(fam.rnf, c)
    if V.shape != fam.v_shape:
        raise ShapeError("V block", V.shape, fam.v_shape)
    return fam.instantiate(V=V) @ c
