"""Exception hierarchy shared by all ginv modules."""


class GinvError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GinvError):
    """Operands have incompatible shapes; the message names both."""

    def __init__(self, op, shape_a, shape_b=None):
        self.op = op
        self.shape_a = shape_a
        self.shape_b = shape_b
        if shape_b is None:
            msg = f"{op}: bad shape {shape_a[0]}x{shape_a[1]}"
        else:
            msg = (f"{op}: incompatible shapes "
                   f"{shape_a[0]}x{shape_a[1]} and {shape_b[0]}x{shape_b[1]}")
        super().__init__(msg)


# Longest scalar text an error message repeats in full.
_ECHO_CHARS = 40


class ScalarParseError(GinvError):
    """Malformed scalar text; ``pos`` is a 0-based index into ``text``.

    The message repeats at most the first 40 characters of the text,
    followed by its length when it is longer.
    """

    def __init__(self, message, text, pos):
        self.text = text
        self.pos = pos
        echo = (repr(text) if len(text) <= _ECHO_CHARS
                else f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)")
        super().__init__(f"{message} at position {pos} in {echo}")


class DocumentParseError(GinvError):
    """Malformed matrix document; carries file, line and column (1-based)."""

    def __init__(self, message, filename, line, col):
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(f"{filename}:{line}:{col}: {message}")


class SingularMatrixError(GinvError):
    """A regular (invertible) matrix was required."""


class InconsistentSystemError(GinvError):
    """Ax = c has no solution; ``tail`` holds the offending coordinates of Qc."""

    def __init__(self, message, tail=None):
        self.tail = tail
        super().__init__(message)


class InconsistentEquationError(GinvError):
    """AXB = C has no solution; ``residual`` is A A1 C B1 B - C (nonzero)."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class ContractError(GinvError):
    """A documented precondition was violated by the caller."""


class UnboundVariableError(GinvError):
    """Polynomial evaluation met a variable without an assigned value."""

    def __init__(self, variable):
        self.variable = variable
        super().__init__(f"no value assigned to variable {variable.name!r}")
