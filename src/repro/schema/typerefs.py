"""Type references: named types and the paper's admissible wrapping types.

Section 4.1 of the paper allows exactly these shapes over a named type ``t``:

    t     t!     [t]     [t!]     [t]!     [t!]!

(the four wrapped shapes of §3.4.1 plus the unwrapped name and the
non-null-wrapped list of §3.12.1).  :class:`TypeRef` encodes precisely this
six-shape family; deeper nesting such as ``[[t]]`` is representable in the
SDL grammar but rejected when building a formal schema.

``basetype`` (the paper's recursively-defined function) is simply the
``base`` attribute here.
"""

from __future__ import annotations

from ..errors import SchemaError
from ..record import Record
from ..sdl import ast


class TypeRef(Record):
    """A named type with the paper's admissible wrappings.

    Attributes:
        base: The underlying named type -- the value of ``basetype``.
        non_null: Whether the outermost type is non-null (``...!``).
        is_list: Whether the type is a list type.
        inner_non_null: For list types, whether the wrapped element type is
            non-null (``[t!]``); always False for non-list types.
    """

    base: str
    non_null: bool = False
    is_list: bool = False
    inner_non_null: bool = False

    def __init__(
        self, base: str, non_null: bool = False, is_list: bool = False, inner_non_null: bool = False
    ) -> None:
        if inner_non_null and not is_list:
            raise SchemaError("inner_non_null requires a list type")
        super().__init__(base, non_null, is_list, inner_non_null)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @staticmethod
    def named(base: str) -> "TypeRef":
        """The unwrapped named type ``t``."""
        return TypeRef(base)

    @staticmethod
    def non_null_of(base: str) -> "TypeRef":
        """``t!``."""
        return TypeRef(base, non_null=True)

    @staticmethod
    def list_of(base: str, inner_non_null: bool = False, non_null: bool = False) -> "TypeRef":
        """``[t]`` / ``[t!]`` / ``[t]!`` / ``[t!]!``."""
        return TypeRef(base, non_null=non_null, is_list=True, inner_non_null=inner_non_null)

    @staticmethod
    def from_ast(node: ast.TypeNode) -> "TypeRef":
        """Convert an SDL type node, rejecting shapes outside the paper's six.

        Raises :class:`SchemaError` for nested lists (``[[t]]``) or other
        inadmissible nesting.
        """
        non_null = False
        if isinstance(node, ast.NonNullTypeNode):
            non_null = True
            node = node.of_type
        if isinstance(node, ast.NamedTypeNode):
            return TypeRef(node.name, non_null=non_null)
        if isinstance(node, ast.ListTypeNode):
            inner = node.of_type
            inner_non_null = False
            if isinstance(inner, ast.NonNullTypeNode):
                inner_non_null = True
                inner = inner.of_type
            if not isinstance(inner, ast.NamedTypeNode):
                raise SchemaError(
                    "nested list types are outside the paper's admissible wrappings"
                )
            return TypeRef(
                inner.name,
                non_null=non_null,
                is_list=True,
                inner_non_null=inner_non_null,
            )
        raise SchemaError(f"cannot interpret type node: {node!r}")

    @staticmethod
    def parse(source: str) -> "TypeRef":
        """Parse a type reference from SDL text, e.g. ``TypeRef.parse("[ID!]!")``."""
        from ..sdl.parser import parse_type

        return TypeRef.from_ast(parse_type(source))

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    def to_ast(self) -> ast.TypeNode:
        """The SDL AST node for this reference."""
        node: ast.TypeNode = ast.NamedTypeNode(self.base)
        if self.is_list:
            if self.inner_non_null:
                node = ast.NonNullTypeNode(node)
            node = ast.ListTypeNode(node)
        if self.non_null:
            node = ast.NonNullTypeNode(node)
        return node

    @property
    def basetype(self) -> str:
        """The paper's ``basetype`` function."""
        return self.base

    @property
    def is_wrapped(self) -> bool:
        """True unless this is a bare named type."""
        return self.non_null or self.is_list

    def unwrap_non_null(self) -> "TypeRef":
        """Drop an outer non-null wrapper (identity if there is none)."""
        if not self.non_null:
            return self
        return TypeRef(self.base, False, self.is_list, self.inner_non_null)

    def __str__(self) -> str:
        inner = self.base + ("!" if self.is_list and self.inner_non_null else "")
        text = f"[{inner}]" if self.is_list else inner
        return text + ("!" if self.non_null else "")


#: All six admissible wrapping shapes of one named type, for enumeration in
#: tests and in the satisfiability engine (the W_X of the paper).
def all_wrappings(base: str) -> tuple[TypeRef, ...]:
    return (
        TypeRef(base),
        TypeRef(base, non_null=True),
        TypeRef(base, is_list=True),
        TypeRef(base, is_list=True, inner_non_null=True),
        TypeRef(base, is_list=True, non_null=True),
        TypeRef(base, is_list=True, inner_non_null=True, non_null=True),
    )
