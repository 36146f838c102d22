"""Exact output checks, computed with the benchmark's own arithmetic.

Each check raises CheckFailed with a reason; the benchmark counts the
operation as failed.  Products, inverses and rank normal forms are
checked Freivalds-style (multiply both sides by a random vector), ranks
and dimensions against the values known from how the input was built,
and regularity or independence by a rank computed modulo large primes.
"""

from qi import ZERO, is_zero, matmul, matvec, rank_lower_bound, transpose


class CheckFailed(Exception):
    """An operation's output is wrong or its outcome is not a documented one."""


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


def no_error(exc):
    if exc is not None:
        raise CheckFailed(f"raised {type(exc).__name__}: {exc}")


def raised(exc, cls):
    expect(isinstance(exc, cls),
           f"expected {cls.__name__}, got {type(exc).__name__ if exc else 'a result'}")


def random_vector(rng, n):
    lim = 10 ** 6
    return [(rng.randint(-lim, lim), rng.randint(-lim, lim)) for _ in range(n)]


def apply_chain(factors, v):
    """factors[0] * (factors[1] * (... * v))."""
    for M in reversed(factors):
        v = matvec(M, v)
    return v


def shape(M):
    return (len(M), len(M[0]) if M else 0)


def same_product(R, factors, rng):
    """R = factors[0] * factors[1] * ..., tested on a random vector."""
    rows = shape(factors[0])[0]
    cols = shape(factors[-1])[1]
    expect(shape(R) == (rows, cols), f"product has shape {shape(R)}")
    v = random_vector(rng, cols)
    expect(matvec(R, v) == apply_chain(factors, v),
           "product differs from its factors")


def regular(M, what):
    m, n = shape(M)
    expect(m == n and rank_lower_bound(M) == n, f"{what} is not regular")


def rank_normal_form(A, r, q, p, rank, rng):
    """Q*A*P = E_r with regular Q and P, and the rank known from the input."""
    m, n = shape(A)
    expect(rank == r, f"rank {rank}, built with rank {r}")
    expect(shape(q) == (m, m) and shape(p) == (n, n), "factor shapes")
    v = random_vector(rng, n)
    e_v = [v[i] if i < r else ZERO for i in range(m)]
    expect(apply_chain([q, A, p], v) == e_v, "Q*A*P differs from E_a")
    regular(q, "Q")
    regular(p, "P")


def inverse(M, M_inv, rng):
    n = shape(M)[0]
    expect(shape(M_inv) == (n, n), "inverse shape")
    v = random_vector(rng, n)
    expect(apply_chain([M, M_inv], v) == v, "M * M^-1 differs from I")


def right_solution(A, c, x, directrix, dimension, r, rng):
    """A*x = c exactly; the directrix is an independent basis of ker A."""
    n = shape(A)[1]
    expect(dimension == n - r, f"dimension {dimension}, expected {n - r}")
    expect(matmul(A, x) == c, "A*x differs from c")
    span_kernel(lambda y: matmul(A, y), directrix, n, dimension, rng)


def span_kernel(apply, directrix, n, dimension, rng):
    """Columns of the directrix are independent and mapped to 0 by apply."""
    if dimension == 0:
        expect(not directrix or not directrix[0], "nonempty directrix")
        return
    expect(shape(directrix) == (n, dimension), "directrix shape")
    t = random_vector(rng, dimension)
    y = [[x] for x in matvec(directrix, t)]
    expect(is_zero(apply(y)), "directrix leaves the kernel")
    expect(rank_lower_bound(directrix) == dimension, "directrix is dependent")


def axb_solution(A, B, C, X):
    expect(matmul(matmul(A, X), B) == C, "A*X*B differs from C")


def one_inverse(A, G):
    expect(matmul(matmul(A, G), A) == A, "A*G*A differs from A")


def witness(A, B, C, X, ga, gb):
    """A re-multiplied witness: G_A, G_B are {1}-inverses and G_A*C*G_B = X."""
    one_inverse(A, ga)
    one_inverse(B, gb)
    expect(matmul(matmul(ga, C), gb) == X, "G_A*C*G_B differs from X")


def unvec(v, rows, cols):
    """Row-major reshape of a column vector (list of 1-element rows)."""
    flat = [row[0] for row in v]
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def kron_solution(A, B, C, particular, directrix, dimension, ra, rb, rng):
    """The Kronecker route's affine set, mapped back to n x p matrices."""
    n, p = shape(A)[1], shape(B)[0]
    expect(dimension == n * p - ra * rb,
           f"dimension {dimension}, expected {n * p - ra * rb}")
    axb_solution(A, B, C, unvec(particular, n, p))
    span_kernel(lambda y: matmul(matmul(A, unvec(y, n, p)), B), directrix,
                n * p, dimension, rng)


def projectors(A, B, L, R):
    """L = A1*A and R = B*B1 for {1}-inverses A1, B1: idempotent, A*L = A
    and R*B = B."""
    expect(matmul(L, L) == L and matmul(A, L) == A, "L is not A1*A")
    expect(matmul(R, R) == R and matmul(R, B) == B, "R is not B*B1")


def left_kernel(A, directrix, dimension, rng):
    """Rows of the directrix are independent and annihilate A from the left."""
    span_kernel(lambda y: matmul(transpose(A), y), transpose(directrix),
                shape(A)[0], dimension, rng)
