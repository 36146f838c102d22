"""Independent oracles the test suite checks the library against.

Apart from the two helpers named at the end, nothing here reuses the
library's elimination or product kernels: rank comes from
permutation-expansion determinants of square submatrices, linear
systems are solved by a plain row-echelon reduction with
back-substitution over the augmented matrix, and the rank normal form,
the matrix product and the Kronecker product are recomputed one boxed
GaussianRational at a time.  Scalar arithmetic, construction and entry
access are taken from the library since they are definitional.
``grid_solutions`` filters candidates with ``@``, and
``solution_dimension_by_kron`` materializes the Kronecker projector to
check the closed-form dimension count, not ``rank`` itself.
"""

from itertools import combinations, permutations, product

from ginv.matrix import ExactMatrix, RankNormalForm, rank
from ginv.scalar import GaussianRational, ONE, ZERO, as_scalar


def det_by_permutations(rows) -> GaussianRational:
    """Leibniz determinant of a square list-of-lists."""
    n = len(rows)
    total = ZERO
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ONE if sign > 0 else -ONE
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def matmul_by_scalars(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A*B summed one GaussianRational product at a time."""
    assert A.cols == B.rows
    if not (A.rows and B.cols):
        return ExactMatrix.empty(A.rows, B.cols)
    rows = []
    for i in range(1, A.rows + 1):
        row = []
        for j in range(1, B.cols + 1):
            acc = ZERO
            for k in range(1, A.cols + 1):
                acc = acc + A.entry(i, k) * B.entry(k, j)
            row.append(acc)
        rows.append(row)
    return ExactMatrix(rows)


def rnf_by_scalars(A: ExactMatrix) -> RankNormalForm:
    """Q*A*P = E_a by Gauss-Jordan elimination on boxed scalars.

    The same pivot rule and elementary operations as
    ``ginv.matrix.rank_normal_form``, so the factors must be equal, not
    merely valid: walk the unfinished columns left to right and take the
    topmost nonzero entry of the first nonzero column.
    """
    m, n = A.rows, A.cols
    M = A.to_rows()
    Q = ExactMatrix.identity(m).to_rows()
    P = ExactMatrix.identity(n).to_rows()
    r = 0
    while r < min(m, n):
        # Find the leftmost unfinished column holding a nonzero entry.
        pivot = None
        for c in range(r, n):
            for t in range(r, m):
                if M[t][c]:
                    pivot = (t, c)
                    break
            if pivot:
                break
        if pivot is None:
            break
        t, c = pivot
        if t != r:
            M[r], M[t] = M[t], M[r]
            Q[r], Q[t] = Q[t], Q[r]
        pv = M[r][c]
        if pv != ONE:
            inv = pv.inverse()
            M[r] = [inv * x for x in M[r]]
            Q[r] = [inv * x for x in Q[r]]
        for i in range(m):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
                Q[i] = [x - f * y for x, y in zip(Q[i], Q[r])]
        if c != r:
            for row in M:
                row[r], row[c] = row[c], row[r]
            for row in P:
                row[r], row[c] = row[c], row[r]
        for j in range(n):
            if j != r and M[r][j]:
                f = M[r][j]
                for row in M:
                    row[j] = row[j] - f * row[r]
                for row in P:
                    row[j] = row[j] - f * row[r]
        r += 1
    return RankNormalForm(ExactMatrix(Q), ExactMatrix(P), r)


def kronecker_by_scalars(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A (x) B: the block matrix with (i, j) block a_ij * B."""
    grid = [[B.scale(A.entry(i, j)) for j in range(1, A.cols + 1)]
            for i in range(1, A.rows + 1)]
    if not (A.rows and A.cols and B.rows and B.cols):
        return ExactMatrix.empty(A.rows * B.rows, A.cols * B.cols)
    return ExactMatrix.block(grid)


def solution_dimension_by_kron(gs) -> int:
    """n*p minus the rank of the materialized projector L (x) R^T."""
    n, p = gs.shape
    return n * p - rank(kronecker_by_scalars(gs.L, gs.R.T))


def brute_rank(M: ExactMatrix) -> int:
    """Largest k with a k x k submatrix of nonzero determinant."""
    rows = [list(r) for r in M.to_rows()]
    for k in range(min(M.rows, M.cols), 0, -1):
        for ri in combinations(range(M.rows), k):
            for ci in combinations(range(M.cols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if not det_by_permutations(sub).is_zero():
                    return k
    return 0


def rref_solve(A: ExactMatrix, c: ExactMatrix):
    """Row-echelon solution of A*x = c.

    Returns (particular, basis) where basis is a list of column
    matrices spanning the nullspace, or None when inconsistent.
    """
    m, n = A.rows, A.cols
    aug = [[A.entry(i, j) for j in range(1, n + 1)] + [c.entry(i, 1)]
           for i in range(1, m + 1)]
    pivots = []
    row = 0
    for col in range(n):
        pivot_row = next((r for r in range(row, m)
                          if not aug[r][col].is_zero()), None)
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [x * inv for x in aug[row]]
        for r in range(m):
            if r != row and not aug[r][col].is_zero():
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if not aug[r][n].is_zero():
            return None
    free = [j for j in range(n) if j not in pivots]
    particular = [ZERO] * n
    for r, col in enumerate(pivots):
        particular[col] = aug[r][n]
    basis = []
    for j in free:
        vec = [ZERO] * n
        vec[j] = ONE
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][j]
        basis.append(ExactMatrix.column(vec))
    if n == 0:
        return ExactMatrix.empty(0, 1), basis
    return ExactMatrix.column(particular), basis


def rref_rank(M: ExactMatrix) -> int:
    """Rank via the echelon oracle (pivot count)."""
    if M.rows == 0 or M.cols == 0:
        return 0
    solved = rref_solve(M, ExactMatrix.zeros(M.rows, 1))
    return M.cols - len(solved[1])


def in_span(columns: ExactMatrix, x: ExactMatrix) -> bool:
    """Is x a combination of the given columns (by the echelon oracle)?"""
    if columns.cols == 0:
        return x.is_zero()
    return rref_solve(columns, x) is not None


def span_equal(cols_a: ExactMatrix, cols_b: ExactMatrix) -> bool:
    """Mutual containment of two column spans."""
    ok_ab = all(in_span(cols_b, cols_a.take_columns(j, j))
                for j in range(1, cols_a.cols + 1))
    ok_ba = all(in_span(cols_a, cols_b.take_columns(j, j))
                for j in range(1, cols_b.cols + 1))
    return ok_ab and ok_ba


def grid_matrices(rows: int, cols: int, values):
    """Every rows x cols matrix with entries drawn from values."""
    pool = [as_scalar(v) for v in values]
    for combo in product(pool, repeat=rows * cols):
        yield ExactMatrix([list(combo[r * cols:(r + 1) * cols])
                           for r in range(rows)])


def grid_solutions(A: ExactMatrix, B: ExactMatrix, C: ExactMatrix, values):
    """All X over the grid with A*X*B = C.  Keep the grid tiny."""
    return [X for X in grid_matrices(A.cols, B.rows, values)
            if A @ X @ B == C]
