"""The benchmark's own exact arithmetic over Q(i).

A scalar is a pair ``(re, im)`` of ints or Fractions; a matrix is a list
of rows of such pairs.  Nothing here calls into ``ginv``: the generator
builds inputs with it, and the checks verify library results with it,
so no check depends on the library's own elimination.
"""

from fractions import Fraction

ZERO = (0, 0)
ONE = (1, 0)


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def inv(a):
    norm = Fraction(a[0] * a[0] + a[1] * a[1])
    return (a[0] / norm, -a[1] / norm)


def nonzero(a):
    return bool(a[0]) or bool(a[1])


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(A, B):
    if not A or not B:
        return [[ZERO] * (len(B[0]) if B else 0) for _ in A]
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def matvec(A, v):
    return [dot(row, v) for row in A]


def vecmat(v, A):
    return [dot(v, col) for col in zip(*A)]


def dot(row, col):
    re = im = 0
    for a, b in zip(row, col):
        if (a[0] or a[1]) and (b[0] or b[1]):
            re += a[0] * b[0] - a[1] * b[1]
            im += a[0] * b[1] + a[1] * b[0]
    return (re, im)


def transpose(A):
    return [list(col) for col in zip(*A)]


def is_zero(A):
    return all(not nonzero(x) for row in A for x in row)


def rank(A):
    """Exact rank by Gauss elimination on a copy (small matrices only)."""
    M = [list(row) for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    r = 0
    for c in range(n):
        p = next((t for t in range(r, m) if nonzero(M[t][c])), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        pinv = inv(M[r][c])
        for t in range(r + 1, m):
            if nonzero(M[t][c]):
                f = mul(M[t][c], pinv)
                M[t] = [sub(x, mul(f, y)) for x, y in zip(M[t], M[r])]
        r += 1
        if r == m:
            break
    return r


# GF(p) images for cheap regularity and independence checks.  Each p is a
# prime with p = 1 (mod 4), so Q(i) maps into GF(p) with i sent to a square
# root of -1.  The image of a nonzero minor may vanish only when p divides
# its norm, so a rank computed mod p is a lower bound of the exact rank,
# and equal to it except with probability about n/p.
_PRIMES = ((2305843009213693921, 583529827753931384),
           (4611686018427387817, 4490822397581186023))
for _p, _i in _PRIMES:
    assert _i * _i % _p == _p - 1


def _to_mod(x, p, i_p):
    total = 0
    for part, unit in ((x[0], 1), (x[1], i_p)):
        q = Fraction(part)
        if q.denominator % p == 0:
            return None
        total += q.numerator * pow(q.denominator, -1, p) * unit
    return total % p


def _rank_mod(A, p, i_p):
    M = []
    for row in A:
        out = []
        for x in row:
            y = _to_mod(x, p, i_p)
            if y is None:
                return None
            out.append(y)
        M.append(out)
    m = len(M)
    n = len(M[0]) if m else 0
    r = 0
    for c in range(n):
        piv = next((t for t in range(r, m) if M[t][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        pinv = pow(M[r][c], -1, p)
        pr = M[r]
        for t in range(r + 1, m):
            f = M[t][c]
            if f:
                f = f * pinv % p
                M[t] = [(x - f * y) % p for x, y in zip(M[t], pr)]
        r += 1
        if r == m:
            break
    return r


def rank_lower_bound(A):
    """A lower bound of rank(A) that is exact with overwhelming probability.

    Takes the larger of the ranks mod two primes; falls back to the exact
    rank when a denominator is divisible by both.
    """
    best = None
    for p, i_p in _PRIMES:
        r = _rank_mod(A, p, i_p)
        if r is not None:
            best = r if best is None else max(best, r)
    return rank(A) if best is None else best
