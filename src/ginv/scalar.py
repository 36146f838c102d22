"""Exact arithmetic over the Gaussian rationals Q(i).

Every matrix entry in this package is a :class:`GaussianRational`: a complex
number with rational real and imaginary parts, kept in canonical reduced form
so that equality is exact and O(1).  The rational components are plain
:class:`fractions.Fraction` values (arbitrary precision, always reduced,
positive denominator).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import ScalarParseError

__all__ = ["GaussianRational", "ZERO", "ONE", "I", "as_scalar",
           "parse_scalar", "render_scalar", "render_int"]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot build a rational component from {type(x).__name__}")


class GaussianRational:
    """Immutable element of Q(i) with exact field arithmetic.

    Supports +, -, *, / against other Gaussian rationals, ints and
    Fractions.  Division by zero raises ``ZeroDivisionError``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def is_real(self) -> bool:
        return not self.im

    # -- field operations ------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparison / hashing ---------------------------------------------

    def __eq__(self, other):
        try:
            other = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return render_scalar(self)


ZERO = GaussianRational(0, 0)
ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)


def _coerce(x):
    # Arithmetic-operator coercion: None (not an exception) for foreign
    # types, so reflected operands such as symbolic variables get a turn.
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    return None


def as_scalar(x) -> GaussianRational:
    """Coerce an int, Fraction, string or GaussianRational to a scalar."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Q(i) scalar")


# -- text format -----------------------------------------------------------
#
# Grammar (whitespace only at the ends):
#   scalar   := term | term ("+" | "-") iterm
#   term     := ["+" | "-"] (rational ["i"] | "i")
#   iterm    := rational "i" | "i"
#   rational := int ["/" int]
#
# Examples: "3/2-1/3i", "-i", "0", "1+i", "4i", "-2/3i".

# The grammar as one pattern: a real term with an optional imaginary
# second term, or a lone imaginary term.  ``\d`` matches exactly the
# digits ``int()`` accepts.
_SCALAR = re.compile(r"""
    [ \t]*
    (?: ([+-]?) (\d+) (?:/(\d+))?              # real term
        (?: ([+-]) (?:(\d+) (?:/(\d+))?)? i )?  # optional imaginary term
      | ([+-]?) (?:(\d+) (?:/(\d+))?)? i        # lone imaginary term
    )
    [ \t]*""", re.VERBOSE)

# str(n) refuses integers over the interpreter's int/str digit limit,
# which cannot be set below 640 digits; 2000 bits are at most 603 digits.
_PLAIN_BITS = 2000
_CHUNK_DIGITS = 500
_CHUNK = 10 ** _CHUNK_DIGITS


def render_int(n: int) -> str:
    """Decimal text of n, of any length: past the int/str digit limit the
    digits are emitted in chunks of ``divmod`` by a power of ten."""
    if n.bit_length() <= _PLAIN_BITS:
        return str(n)
    q, chunks = abs(n), []
    while q >= _CHUNK:
        q, r = divmod(q, _CHUNK)
        chunks.append(str(r).zfill(_CHUNK_DIGITS))
    chunks.append(str(q))
    return ("-" if n < 0 else "") + "".join(reversed(chunks))


def render_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return render_int(q.numerator)
    return f"{render_int(q.numerator)}/{render_int(q.denominator)}"


def render_scalar(x: GaussianRational) -> str:
    """Render so that ``parse_scalar(render_scalar(x)) == x``."""
    re, im = x.re, x.im
    if not im:
        return render_rational(re)
    if im == 1:
        istr = "i"
    elif im == -1:
        istr = "-i"
    else:
        istr = render_rational(im) + "i"
    if not re:
        return istr
    sign = "+" if im > 0 else "-"
    mag = istr.lstrip("-") if im < 0 else istr
    return render_rational(re) + sign + mag


def _rational(sign: str, num, den) -> Fraction:
    """sign, numerator and denominator digits (None for absent) as a
    Fraction; an absent numerator is the 1 of a bare ``i``."""
    q = Fraction(int(num), int(den)) if den else Fraction(int(num) if num else 1)
    return -q if sign == "-" else q


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar; malformed input raises ScalarParseError with position."""
    m = _SCALAR.fullmatch(text)
    if m is not None:
        s1, n1, d1, s2, n2, d2, s3, n3, d3 = m.groups()
        try:
            if n1 is None:
                return GaussianRational(0, _rational(s3, n3, d3))
            im = _rational(s2, n2, d2) if s2 else 0
            return GaussianRational(_rational(s1, n1, d1), im)
        except (ValueError, ZeroDivisionError):
            pass  # a literal over the digit limit, or a zero denominator
    # Only rejected input gets here; the walk locates the error.
    return _walk(text)


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        # "\0" is the end sentinel; it matches no grammar character.
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def skip_ws(self):
        while self.peek() in " \t":
            self.pos += 1

    def fail(self, message):
        raise ScalarParseError(message, self.text, self.pos)

    def read_int(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a digit")
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            # CPython caps str -> int conversion (sys.get_int_max_str_digits).
            raise ScalarParseError(
                f"integer literal of {self.pos - start} digits exceeds the "
                f"limit of {sys.get_int_max_str_digits()}",
                self.text, start) from None

    def read_rational(self) -> Fraction:
        num = self.read_int()
        if self.peek() == "/":
            self.pos += 1
            at = self.pos
            den = self.read_int()
            if den == 0:
                raise ScalarParseError("zero denominator", self.text, at)
            return Fraction(num, den)
        return Fraction(num)


def _walk(text: str) -> GaussianRational:
    """The grammar walked one character at a time.  ``parse_scalar`` runs
    it only on text its pattern rejects, where it raises the
    ScalarParseError that names the first bad position."""
    cur = _Cursor(text)
    cur.skip_ws()

    def term(sign_allowed=True):
        # Returns (value: Fraction, imaginary: bool)
        sign = 1
        if sign_allowed and cur.peek() in "+-":
            if cur.peek() == "-":
                sign = -1
            cur.pos += 1
        if cur.peek() == "i":
            cur.pos += 1
            return Fraction(sign), True
        q = sign * cur.read_rational()
        if cur.peek() == "i":
            cur.pos += 1
            return q, True
        return q, False

    first, first_imag = term()
    re, im = (Fraction(0), first) if first_imag else (first, Fraction(0))
    if not first_imag and cur.peek() in "+-":
        second, second_imag = term()
        if not second_imag:
            cur.fail("second component must be imaginary")
        im = second
    cur.skip_ws()
    if cur.pos != len(cur.text):
        cur.fail("unexpected trailing input")
    return GaussianRational(re, im)
