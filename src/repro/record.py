"""Plain value records: the data classes of the one-shot ``pgschema`` path.

A ``@dataclass`` costs ~0.7 ms to build (a plain class ~0.01 ms), and each
``pgschema lint``/``validate``/``sat`` process builds its classes anew.  A
:class:`Record` is declared like a dataclass (annotated fields, defaults as
class attributes, ``[]``/``{}``/``set()`` defaults copied per instance) and
reads its fields once, at class creation.  It compares and hashes by class
and the fields not in ``_uncompared`` (which come last), caches its hash,
pickles through the constructor and reprs as ``Name(field=value, ...)``; it
is frozen unless declared ``class R(Record, frozen=False)`` (then mutable
and unhashable).  Records built per token, graph element, recheck, report
or role set their fields in an explicit ``__init__``, which costs less than
the generic argument binding.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable

#: The default of a field that has none.
REQUIRED = object()

_set = object.__setattr__


def _frozen(record: object, name: str, *value: object) -> None:
    raise AttributeError(f"{type(record).__name__} is frozen: cannot set or delete {name!r}")


class Record:
    """Base of the value records; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}  # field -> default or REQUIRED, in field order
    _required = 0  # the fields without a default come first
    _copied: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    _hash: int | None = None

    def __init_subclass__(cls, frozen: bool = True) -> None:
        super().__init_subclass__()
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = tuple(sorted(cls._fields + own, key=cls._uncompared.__contains__))
        defaults = {**cls._defaults, **{name: cls.__dict__.get(name, REQUIRED) for name in own}}
        cls._defaults = {name: defaults[name] for name in cls._fields}
        cls._required = list(cls._defaults.values()).count(REQUIRED)
        assert REQUIRED not in list(cls._defaults.values())[cls._required :], cls
        cls._copied = tuple(n for n in cls._fields if type(defaults[n]) in (list, dict, set))
        # a record without compared fields is equal to every other of its class
        compared = [name for name in cls._fields if name not in cls._uncompared]
        key: Callable[[object], object] = attrgetter(*(compared or ["__class__"]))

        def __eq__(self: Record, other: object) -> bool:
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self: Record) -> int:
            value = self._hash
            if value is None:
                value = hash(key(self))
                _set(self, "_hash", value)
            return value

        methods: dict[str, object] = {"__eq__": __eq__, "__hash__": __hash__ if frozen else None}
        if frozen:
            methods.update(__setattr__=_frozen, __delattr__=_frozen)
        for name, method in methods.items():
            setattr(cls, name, method)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self._fields
        values = self._bind(args, kwargs) if kwargs or len(args) != len(names) else args
        for name, value in zip(names, values):
            _set(self, name, value)

    def _bind(self, args: tuple[object, ...], kwargs: dict[str, object]) -> Iterable[object]:
        """Every field's value, in field order."""
        names, defaults, required = self._fields, self._defaults, self._required
        if not kwargs and not self._copied and required <= len(args) < len(names):
            return args + tuple(defaults.values())[len(args) :]
        values = defaults.copy()
        values.update(zip(names, args))
        values.update(kwargs)
        if (
            len(args) > len(names)
            or len(values) > len(names)
            or not kwargs.keys().isdisjoint(names[: len(args)])
            or not all(map(kwargs.__contains__, names[len(args) : required]))
        ):
            raise TypeError(f"{type(self).__name__}() takes {names}: got {args}, {kwargs}")
        for name in self._copied:
            if values[name] is defaults[name]:
                values[name] = values[name].copy()
        return values.values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[type[Record], tuple[object, ...]]:
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Spanned(Record):
    """A record whose last two fields are the 1-based SDL ``line``/``column``
    it was declared at (0 if built in code), left out of ``==``/``hash``."""

    _uncompared = ("line", "column")
    line: int = 0
    column: int = 0
