"""GraphQL SDL front end: lexer, AST, parser, printer (June 2018 edition).

Exports resolve on first access (PEP 562), like the top-level package:
parsing a schema does not load the printer.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from . import ast
    from .lexer import tokenize
    from .parser import parse_document, parse_type, parse_value
    from .printer import print_definition, print_document, print_type, print_value
    from .tokens import Token, TokenKind

__all__ = [
    "Token",
    "TokenKind",
    "ast",
    "parse_document",
    "parse_type",
    "parse_value",
    "print_definition",
    "print_document",
    "print_type",
    "print_value",
    "tokenize",
]

# Exported name -> the submodule that defines it; keep in step with the
# TYPE_CHECKING imports above (tests/test_meta.py pins both).
_EXPORTS = {
    "ast": "ast",
    "tokenize": "lexer",
    "parse_document": "parser",
    "parse_type": "parser",
    "parse_value": "parser",
    "print_definition": "printer",
    "print_document": "printer",
    "print_type": "printer",
    "print_value": "printer",
    "Token": "tokens",
    "TokenKind": "tokens",
}


__getattr__ = _lazy_exports(globals(), _EXPORTS)
