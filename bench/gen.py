"""Seeded instance generator, built on the benchmark's own arithmetic.

Every matrix with a prescribed rank is made as ``A = S * E_r * T`` with
regular ``S`` and ``T`` whose regularity is known by construction:

    S = H * Pr * L * Dm        T = U * Pc

``L`` is unit lower triangular and ``U`` unit upper triangular, ``Dm`` is
diagonal with nonzero entries, ``Pr`` and ``Pc`` permute rows and columns
and ``H`` scales some rows by high-height values.  So rank(A) = r exactly,
without any elimination, and for small sizes ``S^-1`` and ``T^-1`` give
{1}-inverses of ``A`` independently of the library.
"""

from fractions import Fraction as F

from qi import ONE, ZERO, identity, matmul, mul, inv, nonzero, sub

# Small ints, simple fractions and Gaussian values.
POOL = [(1, 0), (-1, 0), (2, 0), (-2, 0), (3, 0), (-3, 0),
        (F(1, 2), 0), (F(-1, 2), 0), (F(2, 3), 0), (F(-3, 4), 0),
        (0, 1), (0, -1), (1, 1), (1, -1), (2, -1), (F(1, 2), F(1, 2))]

HIGH_DIGITS = 10


def draw(rng):
    return rng.choice(POOL)


def high_value(rng):
    """A Gaussian rational whose parts have 10-digit numerators and
    denominators."""
    lo, hi = 10 ** (HIGH_DIGITS - 1), 10 ** HIGH_DIGITS - 1

    def part():
        return F(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))
    return (part(), part())


def random_matrix(rng, m, n, high=False):
    pick = high_value if high else draw
    return [[pick(rng) for _ in range(n)] for _ in range(m)]


class Factored:
    """A = S * E_r * T with the pieces needed for the checks.

    ``out_col`` lies outside the column space of A and ``out_row`` outside
    its row space (both None at full rank on that side); ``s_inv`` and
    ``t_inv`` are filled only when requested, for small sizes.
    """

    def __init__(self, A, r, out_col, out_row, s_inv, t_inv):
        self.A = A
        self.rank = r
        self.out_col = out_col
        self.out_row = out_row
        self.s_inv = s_inv
        self.t_inv = t_inv

    @property
    def shape(self):
        return len(self.A), len(self.A[0])


def factored(rng, m, n, r, high_rows=0, inverses=False):
    """An m x n matrix of rank exactly r (see the module docstring).

    Half the off-diagonal entries of L and U are nonzero, which keeps the
    entries of A small while A is dense.
    """
    L = [[ONE if i == k else (draw(rng) if k < i and rng.random() < 0.5
                              else ZERO) for k in range(m)] for i in range(m)]
    U = [[ONE if j == k else (draw(rng) if j > k and rng.random() < 0.5
                              else ZERO) for j in range(n)] for k in range(n)]
    d = [draw(rng) for _ in range(m)]
    pr = rng.sample(range(m), m)
    pc = rng.sample(range(n), n)
    h = [ONE] * m
    for i in rng.sample(range(m), high_rows):
        h[i] = high_value(rng)
    # S = H*Pr*L*Dm (Dm = diag(d)); T = U*Pc.
    LD = [[mul(L[i][k], d[k]) if nonzero(L[i][k]) else ZERO for k in range(m)]
          for i in range(m)]
    S = [[mul(h[i], x) for x in LD[pr[i]]] for i in range(m)]
    T = [[row[pc[j]] for j in range(n)] for row in U]
    # A = S * E_r * T = (first r columns of S) * (first r rows of T).
    A = [[ZERO] * n for _ in range(m)]
    for i in range(m):
        acc = A[i]
        for k in range(r):
            s = S[i][k]
            if nonzero(s):
                for j, t in enumerate(T[k]):
                    if nonzero(t):
                        acc[j] = (acc[j][0] + s[0] * t[0] - s[1] * t[1],
                                  acc[j][1] + s[0] * t[1] + s[1] * t[0])
    out_col = [S[i][r] for i in range(m)] if r < m else None
    out_row = list(T[r]) if r < n else None
    s_inv = inverse(S) if inverses else None
    t_inv = inverse(T) if inverses else None
    return Factored(A, r, out_col, out_row, s_inv, t_inv)


def inverse(M):
    """Gauss-Jordan inverse of a matrix known to be regular."""
    n = len(M)
    aug = [list(row) + e for row, e in zip(M, identity(n))]
    for c in range(n):
        p = next(t for t in range(c, n) if nonzero(aug[t][c]))
        aug[c], aug[p] = aug[p], aug[c]
        pinv = inv(aug[c][c])
        aug[c] = [mul(pinv, x) for x in aug[c]]
        for t in range(n):
            if t != c and nonzero(aug[t][c]):
                f = aug[t][c]
                aug[t] = [sub(x, mul(f, y)) for x, y in zip(aug[t], aug[c])]
    return [row[n:] for row in aug]


def one_inverse(f, rng):
    """A random {1}-inverse T^-1 * [[I_r, U], [V, W]] * S^-1 of f.A."""
    m, n = f.shape
    r = f.rank
    mid = [[(ONE if i == j else ZERO) if i < r and j < r
            else (ZERO if rng.random() < 0.3 else draw(rng))
            for j in range(m)] for i in range(n)]
    return matmul(matmul(f.t_inv, mid), f.s_inv)
