"""Shared fixtures: the running example and seeded random generators."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ginv.matrix import ExactMatrix
from ginv.scalar import GaussianRational

DATA_DIR = Path(__file__).parent / "data"

# The A*X*B = C instance every module is exercised on, together with the
# particular solution X1 that no product G_A*C*G_B reaches.
DEMO_A = ExactMatrix([[1, 2, 1], [0, 1, 0], [1, 1, 1]])
DEMO_B = ExactMatrix([[1, 1], [1, 1], [2, 2]])
DEMO_C = ExactMatrix([[-3, -3], [-1, -1], [-2, -2]])
DEMO_X1 = ExactMatrix([[-7, 1, 1], [-1, 0, 0], [0, 1, 1]])

# Small-height scalars for random matrices: integers, simple fractions,
# and a few Gaussian points.
SCALAR_POOL = tuple(
    [GaussianRational(Fraction(k)) for k in range(-3, 4)]
    + [GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-2, 3))]
    + [GaussianRational(Fraction(0), Fraction(1)),
       GaussianRational(Fraction(1), Fraction(-1)),
       GaussianRational(Fraction(-1, 2), Fraction(1, 2))]
)

INT_POOL = tuple(GaussianRational(Fraction(k)) for k in range(-3, 4))


@pytest.fixture
def demo():
    return DEMO_A, DEMO_B, DEMO_C


@pytest.fixture
def demo_x1():
    return DEMO_X1


@pytest.fixture
def demo_file():
    return str(DATA_DIR / "demo.mx")


def random_scalar(rng, pool=SCALAR_POOL):
    return rng.choice(pool)


def random_matrix(rng, m, n, pool=SCALAR_POOL) -> ExactMatrix:
    if not (m and n):
        return ExactMatrix.empty(m, n)
    return ExactMatrix([[random_scalar(rng, pool) for _ in range(n)]
                        for _ in range(m)])


def _unit_lower(rng, n, pool) -> ExactMatrix:
    rows = [[GaussianRational(Fraction(1)) if i == j
             else (random_scalar(rng, pool) if i > j
                   else GaussianRational(Fraction(0)))
             for j in range(n)] for i in range(n)]
    return ExactMatrix(rows)


def _permutation(rng, n) -> ExactMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[GaussianRational(Fraction(1 if perm[i] == j else 0))
             for j in range(n)] for i in range(n)]
    return ExactMatrix(rows)


def random_regular(rng, n, pool=INT_POOL) -> ExactMatrix:
    """Invertible by construction: permuted unit-triangular factors."""
    if n == 0:
        return ExactMatrix.empty(0, 0)
    return (_permutation(rng, n) @ _unit_lower(rng, n, pool)
            @ _unit_lower(rng, n, pool).T @ _permutation(rng, n))


def random_matrix_with_rank(rng, m, n, r, pool=INT_POOL) -> ExactMatrix:
    """m x n of exact rank r: invertible * E_r * invertible."""
    if r > min(m, n):
        raise ValueError("rank exceeds dimensions")
    return (random_regular(rng, m, pool) @ ExactMatrix.e_block(m, n, r)
            @ random_regular(rng, n, pool))


def read_decimal(text) -> int:
    """int(text) in chunks, so past the interpreter's int/str digit limit."""
    digits = text.lstrip("-")
    value = 0
    for k in range(0, len(digits), 1000):
        chunk = digits[k:k + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


@pytest.fixture
def rng():
    return random.Random(20240811)
