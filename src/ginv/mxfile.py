"""Parser for .mx matrix documents.

A document is a sequence of named matrix blocks:

    # comment to end of line
    A = [ 1 2 1 ; 0 1 0 ; 1 1 1 ]
    c = [ -3 ; -1 ; 0 ]

Rows are separated by ";", entries by whitespace, and each entry is one
scalar token like 3, -1/2, 2+i or 1/2-3/4i.  Whitespace and newlines are
otherwise free; names must be unique.
"""

from __future__ import annotations

import re

from .errors import DocumentParseError, ScalarParseError
from .matrix import ExactMatrix
from .scalar import parse_scalar

__all__ = ["MatrixDocument", "parse_document", "load_document"]

_PUNCT = "=[];"


class MatrixDocument:
    """Named matrices parsed from one .mx file, in declaration order."""

    __slots__ = ("filename", "_table")

    def __init__(self, filename: str, table):
        object.__setattr__(self, "filename", filename)
        object.__setattr__(self, "_table", dict(table))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixDocument is immutable")

    @property
    def names(self):
        return tuple(self._table)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __getitem__(self, name: str) -> ExactMatrix:
        return self._table[name]

    def get(self, name: str, default=None):
        return self._table.get(name, default)

    def __len__(self):
        return len(self._table)


class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text, line, col):
        self.text = text
        self.line = line
        self.col = col


# A newline, a comment, a punctuation mark or a run of other characters;
# spaces, tabs and carriage returns between them are skipped.
_TOKEN = re.compile(r"\n|#[^\n]*|[=\[\];]|[^ \t\r\n#=\[\];]+")


def _tokenize(text: str):
    """Tokens in one pass; a column counts characters since the last
    newline, so a tab or carriage return is one column wide."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        tok = m.group()
        if tok == "\n":
            line += 1
            line_start = m.end()
        elif tok[0] != "#":
            tokens.append(_Token(tok, line, m.start() - line_start + 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens, filename):
        self.tokens = tokens
        self.filename = filename
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def fail(self, message, token=None):
        if token is None:
            token = self.peek()
        if token is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            col = last.col + len(last.text) if last else 1
            raise DocumentParseError(message + " (unexpected end of file)",
                                     self.filename, line, col)
        raise DocumentParseError(message, self.filename, token.line, token.col)

    def expect(self, text):
        tok = self.next()
        if tok is None or tok.text != text:
            self.fail(f"expected {text!r}", tok)
        return tok


def _is_name(text: str) -> bool:
    return text[0].isalpha() or text[0] == "_" if text else False


def _parse_entry(tok: _Token, filename: str):
    try:
        return parse_scalar(tok.text)
    except ScalarParseError as err:
        raise DocumentParseError(f"bad matrix entry: {err}",
                                 filename, tok.line, tok.col + err.pos) from err


def _parse_matrix(stream: _TokenStream):
    open_tok = stream.expect("[")
    rows = [[]]
    while True:
        tok = stream.peek()
        if tok is None:
            stream.fail("unterminated matrix block", None)
        if tok.text == "]":
            stream.next()
            break
        if tok.text == ";":
            stream.next()
            rows.append([])
            continue
        if tok.text in _PUNCT:
            stream.fail(f"unexpected {tok.text!r} inside a matrix block", tok)
        stream.next()
        rows[-1].append(_parse_entry(tok, stream.filename))
    if rows and not rows[-1]:
        rows.pop()
    if not rows:
        stream.fail("matrix block has no entries", open_tok)
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width == 0:
        stream.fail("matrix rows have unequal lengths", open_tok)
    return ExactMatrix(rows)


def parse_document(text: str, filename: str = "<string>") -> MatrixDocument:
    """Parse .mx text; positions in errors are 1-based line and column."""
    stream = _TokenStream(_tokenize(text), filename)
    table = {}
    while stream.peek() is not None:
        name_tok = stream.next()
        if name_tok.text in _PUNCT or not _is_name(name_tok.text):
            stream.fail(f"expected a matrix name, got {name_tok.text!r}",
                        name_tok)
        if name_tok.text in table:
            stream.fail(f"duplicate matrix name {name_tok.text!r}", name_tok)
        stream.expect("=")
        table[name_tok.text] = _parse_matrix(stream)
    return MatrixDocument(filename, table)


def load_document(path) -> MatrixDocument:
    """Read and parse a .mx file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read(), filename=str(path))
