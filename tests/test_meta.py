"""Meta-tests: catalogue completeness and cross-module wiring."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

from repro.fo.sentences import SENTENCES
from repro.validation import (
    ALL_RULES,
    DIRECTIVE_RULES,
    EXTENSION_RULES,
    RULES,
    STRONG_RULES,
    WEAK_RULES,
    IndexedValidator,
    NaiveValidator,
)
from repro.validation.violations import Violation, rules_for_mode


class TestRuleCatalogue:
    def test_mode_partition(self):
        assert WEAK_RULES + DIRECTIVE_RULES + STRONG_RULES == ALL_RULES
        assert set(ALL_RULES) | set(EXTENSION_RULES) == set(RULES)
        assert len(set(ALL_RULES)) == 15

    def test_every_rule_has_statement(self):
        for rule, (title, statement) in RULES.items():
            assert title and statement, rule

    def test_every_rule_has_engine_methods(self):
        from repro.workloads import load

        schema = load("library")
        for engine in (NaiveValidator(schema), IndexedValidator(schema)):
            for rule in RULES:
                assert hasattr(engine, f"_{rule.lower()}"), (
                    type(engine).__name__,
                    rule,
                )

    def test_every_core_rule_has_fo_sentence(self):
        assert set(SENTENCES) == set(ALL_RULES)

    def test_rules_for_mode(self):
        assert rules_for_mode("weak") == WEAK_RULES
        assert rules_for_mode("directives") == DIRECTIVE_RULES
        assert rules_for_mode("strong") == ALL_RULES
        assert rules_for_mode("extended") == ALL_RULES + EXTENSION_RULES

    def test_violation_rendering(self):
        violation = Violation("WS1", "User.login", ("u1",), "bad value")
        text = str(violation)
        assert "WS1" in text and "User.login" in text and "u1" in text
        assert violation.title == RULES["WS1"][0]
        assert violation.key() == ("WS1", "User.login", ("u1",))


def _defining_modules(package) -> dict[str, tuple[str, str | None]]:
    """Exported name -> (module, attribute) its ``__init__`` imports it from.

    Read from the ``from .x import name`` statements of the package's
    ``__init__`` (including ones under ``if TYPE_CHECKING:``).  A bare
    ``from . import name`` re-exports the submodule itself: attribute
    ``None``.
    """
    tree = ast.parse(Path(package.__file__).read_text())
    origins = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    origin = (f"{package.__name__}.{alias.name}", None)
                else:
                    origin = (f"{package.__name__}.{node.module}", alias.name)
                origins[alias.asname or alias.name] = origin
    return origins


def _import_all_submodules(package) -> None:
    for info in pkgutil.walk_packages(package.__path__, f"{package.__name__}."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _assert_exports_are_the_defining_objects(package_name: str) -> None:
    package = importlib.import_module(package_name)
    _import_all_submodules(package)
    origins = _defining_modules(package)
    for name in package.__all__:
        exported = getattr(package, name)
        assert exported is not None, (package_name, name)
        if name not in origins:  # defined in the __init__ itself
            assert name in vars(package), (package_name, name)
            continue
        module_name, attribute = origins[name]
        module = importlib.import_module(module_name)
        expected = module if attribute is None else getattr(module, attribute)
        assert exported is expected, (package_name, name, module_name)


class TestPublicAPI:
    """Every exported name is the object its defining module binds.

    Checked after importing every submodule, because importing a submodule
    rebinds the package attribute of the same name: were the function
    ``repro.dl.nnf`` defined in a submodule ``repro.dl.nnf`` (it lives in
    ``repro.dl.normal_form``), the lazily resolved export would silently
    become the module.  A not-``None`` check cannot see that -- a module is
    not ``None`` either.
    """

    def test_top_level_exports_resolve(self):
        _assert_exports_are_the_defining_objects("repro")

    @pytest.mark.parametrize(
        "package_name",
        (
            "repro.pg",
            "repro.sdl",
            "repro.schema",
            "repro.lint",
            "repro.validation",
            "repro.fo",
            "repro.sat",
            "repro.dl",
            "repro.satisfiability",
            "repro.api",
            "repro.baselines",
            "repro.workloads",
            "repro.obs",
            "repro.resilience",
        ),
    )
    def test_subpackage_exports_resolve(self, package_name):
        _assert_exports_are_the_defining_objects(package_name)

    def test_top_level_exports_match_the_lazy_table(self):
        import repro

        origins = {
            name: module_name.split(".")[1]
            for name, (module_name, _) in _defining_modules(repro).items()
        }
        assert origins == repro._EXPORTS
        assert set(repro._EXPORTS) | {"__version__"} == set(repro.__all__)

    @pytest.mark.parametrize(
        "package_name",
        (
            "repro.pg",
            "repro.validation",
            "repro.satisfiability",
            "repro.schema",
            "repro.sdl",
            "repro.dl",
            "repro.obs",
            "repro.resilience",
            "repro.lint",
            "repro.service",
        ),
    )
    def test_lazy_subpackage_exports_match_the_table(self, package_name):
        package = importlib.import_module(package_name)
        prefix = f"{package_name}."
        defining = _defining_modules(package)
        origins = {
            name: module_name.removeprefix(prefix)
            for name, (module_name, _) in defining.items()
        }
        assert origins == package._EXPORTS
        assert set(package._EXPORTS) <= set(package.__all__)
        # every other export is bound by the __init__ itself, eagerly: the
        # package's __getattr__ resolves only the table
        for name in set(package.__all__) - set(package._EXPORTS):
            assert name in vars(package), name
        for name, module_name in package._EXPORTS.items():
            module = importlib.import_module(prefix + module_name)
            expected = module if defining[name][1] is None else getattr(module, name)
            assert getattr(package, name) is expected, name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
