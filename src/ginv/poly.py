"""Multivariate polynomials over Q(i) and matrices of them.

The representation is sparse: a polynomial maps monomials to nonzero
coefficients, where a monomial is a tuple of (variable, exponent) pairs
sorted by variable id.  Term order for iteration and rendering is graded
lexicographic by variable id, which keeps every derived artifact (reports,
elimination traces) deterministic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ShapeError, UnboundVariableError
from .matrix import ExactMatrix
from .scalar import ONE, ZERO, GaussianRational, as_scalar, render_scalar

__all__ = ["Variable", "fresh_variables", "Poly", "SymMatrix", "sym_matmul",
           "affine_decompose"]


class Variable:
    """A named indeterminate; ``id`` orders terms and must be unique
    within one symbolic computation."""

    __slots__ = ("name", "id")

    def __init__(self, name: str, id: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "id", id)

    def __setattr__(self, name, value):
        raise AttributeError("Variable is immutable")

    def __eq__(self, other):
        if not isinstance(other, Variable):
            return NotImplemented
        return self.id == other.id and self.name == other.name

    def __hash__(self):
        return hash((self.id, self.name))

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"Variable({self.name!r}, {self.id})"

    # Arithmetic on variables builds polynomials directly, so symbolic
    # matrices can be written as plain expressions.
    def __add__(self, other):
        return Poly.variable(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return Poly.variable(self) - other

    def __rsub__(self, other):
        return -Poly.variable(self) + other

    def __neg__(self):
        return -Poly.variable(self)

    def __mul__(self, other):
        return Poly.variable(self) * other

    __rmul__ = __mul__


def fresh_variables(names, start: int = 0):
    """Variables with consecutive ids beginning at ``start``."""
    return [Variable(name, start + k) for k, name in enumerate(names)]


def _as_poly(x) -> "Poly":
    if isinstance(x, Poly):
        return x
    if isinstance(x, Variable):
        return Poly.variable(x)
    return Poly.constant(as_scalar(x))


def _mono_mul(ma, mb):
    exps = dict(ma)
    for v, e in mb:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=lambda ve: ve[0].id))


def _mono_key(mono):
    return (sum(e for _, e in mono), tuple((v.id, e) for v, e in mono))


class Poly:
    """Immutable sparse polynomial with GaussianRational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms):
        # terms: mapping monomial -> coefficient; zero coefficients dropped.
        object.__setattr__(self, "_terms",
                           {m: c for m, c in terms.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def constant(cls, c) -> "Poly":
        c = as_scalar(c)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, v: Variable) -> "Poly":
        return cls({((v, 1),): ONE})

    # -- structure ----------------------------------------------------------

    def terms(self):
        """Terms in graded-lex order as (monomial, coefficient) pairs."""
        return sorted(self._terms.items(), key=lambda mc: _mono_key(mc[0]))

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == () for m in self._terms)

    def constant_value(self) -> GaussianRational:
        return self._terms.get((), ZERO)

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self._terms), default=0)

    def degree_in(self, variables) -> int:
        """Max combined exponent of the given variables over all monomials."""
        vs = set(variables)
        return max((sum(e for v, e in m if v in vs) for m in self._terms),
                   default=0)

    def is_affine(self) -> bool:
        return self.total_degree() <= 1

    def variables(self):
        out = set()
        for m in self._terms:
            for v, _ in m:
                out.add(v)
        return out

    def linear_form(self):
        """(constant, {variable: coefficient}) of an affine polynomial."""
        if not self.is_affine():
            raise ValueError("polynomial is not affine")
        const = self._terms.get((), ZERO)
        coeffs = {m[0][0]: c for m, c in self._terms.items() if m}
        return const, coeffs

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, ZERO) + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Poly({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        other = _as_poly(other)
        out = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = _mono_mul(ma, mb)
                out[m] = out.get(m, ZERO) + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = as_scalar(c)
        return Poly({m: c * v for m, v in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- substitution / evaluation ---------------------------------------------

    def substitute(self, mapping) -> "Poly":
        """Replace variables by polynomials (or scalars); others stay."""
        if not mapping:
            return self
        table = {v: _as_poly(p) for v, p in mapping.items()}
        if not any(v in table for m in self._terms for v, _ in m):
            return self
        acc = Poly.zero()
        for m, c in self._terms.items():
            part = Poly.constant(c)
            for v, e in m:
                factor = table.get(v)
                if factor is None:
                    factor = Poly.variable(v)
                for _ in range(e):
                    part = part * factor
            acc = acc + part
        return acc

    def evaluate(self, assignment) -> GaussianRational:
        """Full evaluation; a variable without a value is an error."""
        acc = ZERO
        for m, c in self._terms.items():
            val = c
            for v, e in m:
                if v not in assignment:
                    raise UnboundVariableError(v)
                x = as_scalar(assignment[v])
                for _ in range(e):
                    val = val * x
            acc = acc + val
        return acc

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            mono_str = "".join(
                str(v) if e == 1 else f"{v}^{e}" for v, e in mono)
            parts.append(_render_term(coeff, mono_str, first=not parts))
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def _render_term(coeff, mono_str, first):
    if not mono_str:
        body = render_scalar(coeff)
        return body if first else ("+" + body if not body.startswith("-") else body)
    if coeff == 1:
        sign, body = "+", mono_str
    elif coeff == -1:
        sign, body = "-", mono_str
    else:
        cs = render_scalar(coeff)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        # Parenthesize composite coefficients so the term reads unambiguously.
        if any(ch in cs for ch in "+-/i"):
            cs = f"({cs})"
        sign, body = ("-" if neg else "+"), cs + mono_str
    if first and sign == "+":
        sign = ""
    return sign + body


class SymMatrix:
    """Immutable matrix of polynomials; 1-based entry access."""

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, rows):
        data = tuple(tuple(_as_poly(x) for x in row) for row in rows)
        m = len(data)
        n = len(data[0]) if m else 0
        for row in data:
            if len(row) != n:
                raise ShapeError("symbolic matrix construction (ragged rows)", (m, n))
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "cols", n)

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @classmethod
    def from_exact(cls, M: ExactMatrix) -> "SymMatrix":
        return cls([[Poly.constant(M.entry(i, j)) for j in range(1, M.cols + 1)]
                    for i in range(1, M.rows + 1)])

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        one, zero = Poly.constant(1), Poly.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> Poly:
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return self._rows[i - 1][j - 1]

    def __add__(self, other):
        if self.shape != other.shape:
            raise ShapeError("add", self.shape, other.shape)
        return SymMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self._rows, other._rows)])

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ShapeError("subtract", self.shape, other.shape)
        return SymMatrix([[a - b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self._rows, other._rows)])

    def __neg__(self):
        return SymMatrix([[-a for a in row] for row in self._rows])

    def __matmul__(self, other):
        if isinstance(other, ExactMatrix):
            other = SymMatrix.from_exact(other)
        if self.cols != other.rows:
            raise ShapeError("multiply", self.shape, other.shape)
        bt = list(zip(*other._rows))
        out = []
        for row in self._rows:
            out_row = []
            for col in bt:
                acc = Poly.zero()
                for a, b in zip(row, col):
                    acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return SymMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def substitute(self, mapping) -> "SymMatrix":
        return SymMatrix([[p.substitute(mapping) for p in row]
                          for row in self._rows])

    def evaluate(self, assignment) -> ExactMatrix:
        return ExactMatrix([[p.evaluate(assignment) for p in row]
                            for row in self._rows])

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self._rows for p in row)

    def variables(self):
        out = set()
        for row in self._rows:
            for p in row:
                out |= p.variables()
        return out

    def render_lines(self):
        cells = [[str(p) for p in row] for row in self._rows]
        widths = [max(len(cells[i][j]) for i in range(self.rows))
                  for j in range(self.cols)]
        return ["[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
                for row in cells]

    def __str__(self):
        return "\n".join(self.render_lines())

    def __repr__(self):
        return f"SymMatrix({self.rows}x{self.cols})"


def sym_matmul(A: SymMatrix, B: SymMatrix) -> SymMatrix:
    """Exact symbolic product (evaluation commutes with multiplication)."""
    return A @ B


def affine_decompose(system):
    """Split polynomials into (total degree <= 1, the rest), order kept."""
    affine, residual = [], []
    for p in system:
        (affine if _as_poly(p).is_affine() else residual).append(p)
    return affine, residual
