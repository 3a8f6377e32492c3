"""Token kinds for the GraphQL lexical grammar (June 2018 specification, §2).

The same token stream serves both the schema definition language parser
(:mod:`repro.sdl.parser`) and the query parser of the API extension
(:mod:`repro.api.query_parser`).
"""

from __future__ import annotations

import enum

from ..record import Record


class TokenKind(enum.Enum):
    """Lexical token kinds of the GraphQL grammar."""

    SOF = "<SOF>"
    EOF = "<EOF>"
    BANG = "!"
    DOLLAR = "$"
    PAREN_L = "("
    PAREN_R = ")"
    SPREAD = "..."
    COLON = ":"
    EQUALS = "="
    AT = "@"
    BRACKET_L = "["
    BRACKET_R = "]"
    BRACE_L = "{"
    BRACE_R = "}"
    PIPE = "|"
    AMP = "&"
    NAME = "Name"
    INT = "Int"
    FLOAT = "Float"
    STRING = "String"
    BLOCK_STRING = "BlockString"


#: Single-character punctuators, mapped to their token kinds.
PUNCTUATORS = {
    "!": TokenKind.BANG,
    "$": TokenKind.DOLLAR,
    "(": TokenKind.PAREN_L,
    ")": TokenKind.PAREN_R,
    ":": TokenKind.COLON,
    "=": TokenKind.EQUALS,
    "@": TokenKind.AT,
    "[": TokenKind.BRACKET_L,
    "]": TokenKind.BRACKET_R,
    "{": TokenKind.BRACE_L,
    "}": TokenKind.BRACE_R,
    "|": TokenKind.PIPE,
    "&": TokenKind.AMP,
}


class Token(Record):
    """A single lexical token.

    Attributes:
        kind: The :class:`TokenKind`.
        value: The token text (for NAME/INT/FLOAT/STRING kinds) or the
            punctuator string.
        line: 1-based source line.
        column: 1-based source column.
    """

    kind: TokenKind
    value: str
    line: int
    column: int

    def __init__(self, kind: TokenKind, value: str, line: int, column: int) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.value!r}, {self.line}:{self.column})"
