"""Dense exact matrices over Q(i) and the rank normal form Q*A*P = E_a.

Public indices are 1-based (``entry(i, j)``).  All values are immutable and
all operations are pure, so matrices are safe to share between threads.
Zero-row / zero-column matrices are permitted so that the degenerate block
shapes arising from rank-0 and full-rank inputs work uniformly.

Storage is a tuple of rows of :class:`GaussianRational` entries, the boxed
public scalar that ``entry()`` returns.  The hot loops do not compute on
boxed scalars.  ``@``, ``rank_normal_form`` and the Kronecker product
(``_kronecker``, behind ``kron.kronecker``) convert each row (or column)
once into Gaussian-integer numerators (separate real and imaginary int
lists) over one positive denominator, work on Python ints, and box each
result entry once at the end.  Elimination reduces each updated row
by a single gcd over its content, so every row keeps the least common
denominator of its entries.  The arithmetic is exact, so the factors are
the ones the same elementary operations give over Q(i).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import ShapeError, SingularMatrixError
from .scalar import ZERO, ONE, GaussianRational, as_scalar, render_scalar

__all__ = ["ExactMatrix", "RankNormalForm", "rank_normal_form", "rank",
           "inverse_regular"]


class ExactMatrix:
    """Immutable m x n matrix of GaussianRational entries."""

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, rows):
        data = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        m = len(data)
        n = len(data[0]) if m else 0
        for row in data:
            if len(row) != n:
                raise ShapeError("matrix construction (ragged rows)", (m, n))
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "cols", n)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, m: int, n: int) -> "ExactMatrix":
        return cls([[ZERO] * n for _ in range(m)])

    @classmethod
    def empty(cls, m: int, n: int) -> "ExactMatrix":
        """A matrix with zero rows or zero columns (m*n must be 0)."""
        if m and n:
            raise ShapeError("empty matrix requires a zero dimension", (m, n))
        mat = cls.__new__(cls)
        object.__setattr__(mat, "_rows", tuple(() for _ in range(m)))
        object.__setattr__(mat, "rows", m)
        object.__setattr__(mat, "cols", n)
        return mat

    @classmethod
    def e_block(cls, m: int, n: int, a: int) -> "ExactMatrix":
        """The block matrix [[I_a, 0], [0, 0]] of shape m x n."""
        return cls([[ONE if i == j and i < a else ZERO for j in range(n)]
                    for i in range(m)])

    @classmethod
    def column(cls, values) -> "ExactMatrix":
        return cls([[v] for v in values])

    @classmethod
    def row_vector(cls, values) -> "ExactMatrix":
        return cls([list(values)])

    # -- access ------------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> GaussianRational:
        """1-based entry access."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return self._rows[i - 1][j - 1]

    def to_rows(self):
        return [list(row) for row in self._rows]

    def column_list(self, j: int):
        return [row[j - 1] for row in self._rows]

    def is_zero(self) -> bool:
        return all(not x for row in self._rows for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic ----------------------------------------------------------

    def _require_same_shape(self, other, op):
        if self.shape != other.shape:
            raise ShapeError(op, self.shape, other.shape)

    def __add__(self, other):
        self._require_same_shape(other, "add")
        return _raw(self.rows, self.cols,
                    [[a + b for a, b in zip(ra, rb)]
                     for ra, rb in zip(self._rows, other._rows)])

    def __sub__(self, other):
        self._require_same_shape(other, "subtract")
        return _raw(self.rows, self.cols,
                    [[a - b for a, b in zip(ra, rb)]
                     for ra, rb in zip(self._rows, other._rows)])

    def __neg__(self):
        return _raw(self.rows, self.cols,
                    [[-a for a in row] for row in self._rows])

    def scale(self, s) -> "ExactMatrix":
        s = as_scalar(s)
        return _raw(self.rows, self.cols,
                    [[s * a for a in row] for row in self._rows])

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ShapeError("multiply", self.shape, other.shape)
        if not self.rows or not other.cols:
            return ExactMatrix.empty(self.rows, other.cols)
        if self.cols == 0:
            return ExactMatrix.zeros(self.rows, other.cols)
        cols = [_numerators(col) for col in zip(*other._rows)]
        out = []
        for ar, ai, d in map(_numerators, self._rows):
            row = []
            for br, bi, e in cols:
                re = sum(map(mul, ar, br)) - sum(map(mul, ai, bi))
                im = sum(map(mul, ar, bi)) + sum(map(mul, ai, br))
                row.append(_box(re, im, d * e))
            out.append(row)
        return _raw(self.rows, other.cols, out)

    @property
    def T(self) -> "ExactMatrix":
        if not self.rows or not self.cols:
            return ExactMatrix.empty(self.cols, self.rows)
        return _raw(self.cols, self.rows, [list(col) for col in zip(*self._rows)])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    # -- slicing helpers -----------------------------------------------------

    def submatrix(self, row_indices, col_indices) -> "ExactMatrix":
        """Select rows/columns by 1-based indices (order preserved)."""
        ri = [i - 1 for i in row_indices]
        ci = [j - 1 for j in col_indices]
        if not ri or not ci:
            return ExactMatrix.empty(len(ri), len(ci))
        return _raw(len(ri), len(ci),
                    [[self._rows[i][j] for j in ci] for i in ri])

    def take_columns(self, first: int, last: int) -> "ExactMatrix":
        """Columns first..last inclusive, 1-based; empty range allowed."""
        return self.submatrix(range(1, self.rows + 1), range(first, last + 1))

    def take_rows(self, first: int, last: int) -> "ExactMatrix":
        return self.submatrix(range(first, last + 1), range(1, self.cols + 1))

    @staticmethod
    def block(grid) -> "ExactMatrix":
        """Assemble a matrix from a grid of blocks; zero-dim blocks collapse."""
        rows_out = []
        width = None
        for band in grid:
            height = max((b.rows for b in band), default=0)
            if height == 0:
                continue
            parts = [b for b in band if b.cols > 0]
            for b in parts:
                if b.rows != height:
                    raise ShapeError("block assembly", (b.rows, b.cols),
                                     (height, b.cols))
            for i in range(height):
                row = []
                for b in parts:
                    row.extend(b._rows[i])
                rows_out.append(row)
            if width is None:
                width = len(rows_out[-1])
            elif len(rows_out[-1]) != width:
                raise ShapeError("block assembly", (len(rows_out[-1]), 1), (width, 1))
        if not rows_out:
            return ExactMatrix.empty(0, width or 0)
        return ExactMatrix(rows_out)

    # -- rendering -------------------------------------------------------------

    def render_lines(self):
        """Aligned text rows: one string per matrix row."""
        if self.rows == 0 or self.cols == 0:
            return [f"[ ] ({self.rows}x{self.cols})"]
        cells = [[render_scalar(x) for x in row] for row in self._rows]
        widths = [max(len(cells[i][j]) for i in range(self.rows))
                  for j in range(self.cols)]
        return ["[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
                for row in cells]

    def __str__(self):
        return "\n".join(self.render_lines())

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def _raw(m, n, rows):
    mat = ExactMatrix.__new__(ExactMatrix)
    object.__setattr__(mat, "_rows", tuple(tuple(r) for r in rows))
    object.__setattr__(mat, "rows", m)
    object.__setattr__(mat, "cols", n)
    return mat


def _numerators(values):
    """Scalars as (re, im, d): Gaussian-integer numerators over one positive
    denominator, value k = (re[k] + im[k]*i) / d, with d least."""
    d = lcm(*[x.re.denominator for x in values],
            *[x.im.denominator for x in values])
    return ([x.re.numerator * (d // x.re.denominator) for x in values],
            [x.im.numerator * (d // x.im.denominator) for x in values], d)


def _kronecker(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A (x) B on the integer kernel: entry a*b of the (i, j) block is
    (x + yi)/d * (u + vi)/e = (xu - yv + (xv + yu)i) / (d*e), with each
    row of A and of B converted to numerators once."""
    if not (A.rows and A.cols and B.rows and B.cols):
        return ExactMatrix.empty(A.rows * B.rows, A.cols * B.cols)
    brows = [_numerators(row) for row in B._rows]
    out = []
    for ar, ai, d in map(_numerators, A._rows):
        for br, bi, e in brows:
            de = d * e
            out.append([_box(x * u - y * v, x * v + y * u, de)
                        for x, y in zip(ar, ai) for u, v in zip(br, bi)])
    return _raw(A.rows * B.rows, A.cols * B.cols, out)


def _reduced(re, im, d):
    """Divide numerators and denominator by their common content."""
    g = gcd(d, *re, *im)
    if g == 1:
        return re, im, d
    return [x // g for x in re], [y // g for y in im], d // g


def _box(re: int, im: int, d: int) -> GaussianRational:
    if not (re or im):
        return ZERO
    return GaussianRational(Fraction(re, d), Fraction(im, d))


class RankNormalForm:
    """Regular Q (m x m), regular P (n x n) and a = rank with Q*A*P = E_a."""

    __slots__ = ("q", "p", "rank")

    def __init__(self, q: ExactMatrix, p: ExactMatrix, rank: int):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name, value):
        raise AttributeError("RankNormalForm is immutable")

    def e(self, m: int, n: int) -> ExactMatrix:
        return ExactMatrix.e_block(m, n, self.rank)

    def __eq__(self, other):
        if not isinstance(other, RankNormalForm):
            return NotImplemented
        return (self.q, self.p, self.rank) == (other.q, other.p, other.rank)

    def __hash__(self):
        return hash((self.q, self.p, self.rank))


def rank_normal_form(A: ExactMatrix) -> RankNormalForm:
    """Factor A as Q*A*P = [[I_a, 0], [0, 0]] with regular Q and P.

    Deterministic pivot rule: walk the unfinished columns left to right and
    take the topmost nonzero entry of the first nonzero column.  Arithmetic
    is exact, so no magnitude pivoting is needed; two calls on equal inputs
    return identical factorizations.

    Gauss-Jordan elimination on the rows of [A | I_m] and of P = I_n, each
    held as Gaussian-integer numerators over one denominator.  Step r
    swaps the pivot row up to row r, scales it to a pivot of 1, clears the
    pivot column in the rows below (rows above are finished and stay
    fixed), swaps the pivot column into column r, and clears the rest of
    row r by column operations.  Every other row of A is zero in column r
    by then, so those column operations change only P and row r.
    """
    m, n = A.rows, A.cols
    rows = []
    for i, row in enumerate(A._rows):
        re, im, d = _numerators(row)
        re += [0] * m
        im += [0] * m
        re[n + i] = d
        rows.append((re, im, d))
    prows = [([int(i == j) for j in range(n)], [0] * n, 1) for i in range(n)]
    r = 0
    while r < min(m, n):
        pivot = next(((t, c) for c in range(r, n) for t in range(r, m)
                      if rows[t][0][c] or rows[t][1][c]), None)
        if pivot is None:
            break
        t, c = pivot
        rows[r], rows[t] = rows[t], rows[r]
        re, im, d = rows[r]
        a, b = re[c], im[c]
        if b:
            # (x + yi)/d * d/(a + bi) = (x + yi)*(a - bi) / (a^2 + b^2)
            re, im, d = _reduced([x * a + y * b for x, y in zip(re, im)],
                                 [y * a - x * b for x, y in zip(re, im)],
                                 a * a + b * b)
        elif a != d:
            if a < 0:
                re, im, a = [-x for x in re], [-y for y in im], -a
            re, im, d = _reduced(re, im, a)
        rows[r] = (re, im, d)
        for i in range(r + 1, m):
            xr, xi, e = rows[i]
            fr, fi = xr[c], xi[c]
            if fr or fi:
                rows[i] = _reduced(
                    [d * x - fr * u + fi * v for x, u, v in zip(xr, re, im)],
                    [d * y - fr * v - fi * u for y, u, v in zip(xi, re, im)],
                    d * e)
        if c != r:
            for xr, xi, _ in rows[r:] + prows:
                xr[r], xr[c] = xr[c], xr[r]
                xi[r], xi[c] = xi[c], xi[r]
        # Column j of P loses f_j times column r, f_j = (gr[j] + gi[j]*i)/d.
        gr = [0] * (r + 1) + re[r + 1:n]
        gi = [0] * (r + 1) + im[r + 1:n]
        if any(gr) or any(gi):
            for k, (xr, xi, e) in enumerate(prows):
                pr, pi = xr[r], xi[r]
                if pr or pi:
                    prows[k] = _reduced(
                        [d * x - pr * u + pi * v for x, u, v in zip(xr, gr, gi)],
                        [d * y - pr * v - pi * u for y, u, v in zip(xi, gr, gi)],
                        d * e)
        r += 1
    q = [[_box(x, y, d) for x, y in zip(re[n:], im[n:])] for re, im, d in rows]
    p = [[_box(x, y, d) for x, y in zip(re, im)] for re, im, d in prows]
    return RankNormalForm(_raw(m, m, q), _raw(n, n, p), r)


def rank(A: ExactMatrix) -> int:
    """rank(A); invariant under multiplication by regular matrices."""
    return rank_normal_form(A).rank


def inverse_regular(M: ExactMatrix) -> ExactMatrix:
    """Exact inverse of a regular matrix: from Q*M*P = I, M^-1 = P*Q."""
    if not M.is_square():
        raise ShapeError("inverse of a non-square matrix", M.shape)
    rnf = rank_normal_form(M)
    if rnf.rank != M.rows:
        raise SingularMatrixError(
            f"matrix of rank {rnf.rank} < {M.rows} is singular")
    return rnf.p @ rnf.q
