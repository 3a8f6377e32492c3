"""The record contract: every value class of the one-shot path keeps the
behaviour it had as a frozen or mutable dataclass.

Parametrized over every :class:`~repro.record.Record` class the ``lint``,
``validate`` and ``sat`` closure defines, with placeholder field values.
"""

import importlib
import pickle

import pytest

from repro.record import REQUIRED, Record
from repro.schema.model import DirectiveDefinition
from repro.schema.typerefs import TypeRef

_MODULES = (
    "repro.errors",
    "repro.resilience.faults",
    "repro.obs.trace",
    "repro.sdl.tokens",
    "repro.sdl.ast",
    "repro.schema.model",
    "repro.schema.typerefs",
    "repro.dl.concepts",
    "repro.dl.tableau",
    "repro.dl.tbox",
    "repro.lint.rules",
    "repro.lint.diagnostics",
    "repro.analysis",
    "repro.analysis.cardinality",
    "repro.analysis.framework",
    "repro.analysis.graph",
    "repro.analysis.lattice",
    "repro.validation.plan",
    "repro.validation.sites",
    "repro.validation.shard",
    "repro.validation.violations",
    "repro.satisfiability.engine",
    "repro.satisfiability.bounded",
    "repro.satisfiability.portfolio",
)


def _records() -> list[type]:
    found = []
    for module_name in _MODULES:
        module = importlib.import_module(module_name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, Record)
                and value.__module__ == module_name
                and not value.__subclasses__()  # bases such as Concept
            ):
                found.append(value)
    return found


RECORDS = _records()


def _placeholders(cls: type, tag: str = "") -> dict:
    """A hashable value for every field without a default."""
    return {name: f"{name}{tag}" for name, default in cls._defaults.items() if default is REQUIRED}


def _is_frozen(cls: type) -> bool:
    return cls.__hash__ is not None


def test_every_one_shot_class_is_a_record():
    assert len(RECORDS) >= 75
    for module_name in _MODULES:
        module = importlib.import_module(module_name)
        for value in vars(module).values():
            assert not hasattr(value, "__dataclass_fields__"), value


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
class TestRecordContract:
    def test_construction_with_defaults(self, cls):
        required = _placeholders(cls)
        by_keyword = cls(**required)
        by_position = cls(*required.values())
        for name in cls._fields:
            expected = required[name] if name in required else cls._defaults[name]
            assert getattr(by_keyword, name) == expected
            assert getattr(by_position, name) == expected
        for name in cls._copied:
            # a list/dict default is a fresh object per instance
            assert getattr(by_keyword, name) is not getattr(by_position, name)
        with pytest.raises(TypeError):
            cls(*cls._fields, "one too many")
        if required:
            with pytest.raises(TypeError):
                cls(*list(required.values())[:-1])

    def test_equality_ignores_only_the_span(self, cls):
        required = _placeholders(cls)
        record = cls(**required)
        assert record == cls(**required)
        assert record != object()
        spans = {name: 7 for name in cls._uncompared if name in cls._fields}
        if spans:
            moved = cls(**required, **spans)
            assert moved == record
            if _is_frozen(cls):
                assert hash(moved) == hash(record)
        if required:
            assert cls(**_placeholders(cls, "-other")) != record

    def test_hash_and_assignment(self, cls):
        record = cls(**_placeholders(cls))
        name = cls._fields[0] if cls._fields else "anything"
        if not _is_frozen(cls):
            with pytest.raises(TypeError):
                hash(record)
            setattr(record, name, "changed")
            assert getattr(record, name) == "changed"
            return
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
        with pytest.raises(AttributeError):
            delattr(record, name)
        if cls._copied:
            with pytest.raises(TypeError):  # it holds a dict or a list
                hash(record)
        else:
            assert hash(record) == hash(cls(**_placeholders(cls)))

    def test_repr_shape(self, cls):
        if "__repr__" in vars(cls):
            return  # Token keeps its own compact repr
        record = cls(**_placeholders(cls))
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls._fields)
        assert repr(record) == f"{cls.__qualname__}({fields})"

    def test_pickle_round_trip(self, cls):
        record = cls(**_placeholders(cls))
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is cls
        assert clone == record
        for name in cls._fields:
            assert getattr(clone, name) == getattr(record, name)


def test_a_record_holding_a_dict_constructs_and_fails_only_when_hashed():
    definition = DirectiveDefinition("key", {"fields": TypeRef("String")}, ("OBJECT",))
    assert definition == DirectiveDefinition("key", {"fields": TypeRef("String")}, ("OBJECT",))
    with pytest.raises(TypeError):
        hash(definition)


def test_the_hash_is_cached_per_instance_but_not_pickled():
    ref = TypeRef("Int", non_null=True)
    assert hash(ref) == hash(ref) == hash(TypeRef("Int", True))
    clone = pickle.loads(pickle.dumps(ref))
    assert "_hash" not in vars(clone)
    assert hash(clone) == hash(ref)
