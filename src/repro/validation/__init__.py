"""Schema validation: the satisfaction semantics of Section 5.

Exports resolve on first access (PEP 562), like the top-level package:
``pgschema validate`` loads the plan kernel it runs, not the CDC consumer,
the stream validator or the reference engines.
"""

from typing import TYPE_CHECKING

from .. import _lazy_exports

if TYPE_CHECKING:
    from .cdc import CDCConsumer, CDCResult, ViolationEvent
    from .engine import (
        ENGINES,
        make_validator,
        satisfies_directives,
        strongly_satisfies,
        validate,
        weakly_satisfies,
    )
    from .incremental import IncrementalValidator, migrated_validator
    from .indexed import IndexedValidator
    from .journal import JournalWriter, MutationEvent, MutationJournal
    from .naive import NaiveValidator
    from .parallel import ParallelValidator, merge_shard_results, validate_shard
    from .plan import (
        ValidationPlan,
        compile_plan,
        plan_cache_clear,
        plan_cache_info,
    )
    from .shard import GraphShard, partition_graph
    from .stream import StreamValidator, validate_jsonl
    from .violations import (
        ALL_RULES,
        DIRECTIVE_RULES,
        EXTENSION_RULES,
        RULES,
        STRONG_RULES,
        WEAK_RULES,
        ValidationReport,
        Violation,
    )

__all__ = [
    "ALL_RULES",
    "CDCConsumer",
    "CDCResult",
    "DIRECTIVE_RULES",
    "ENGINES",
    "EXTENSION_RULES",
    "GraphShard",
    "IncrementalValidator",
    "IndexedValidator",
    "JournalWriter",
    "MutationEvent",
    "MutationJournal",
    "NaiveValidator",
    "ParallelValidator",
    "RULES",
    "STRONG_RULES",
    "StreamValidator",
    "ValidationPlan",
    "ValidationReport",
    "Violation",
    "ViolationEvent",
    "WEAK_RULES",
    "compile_plan",
    "make_validator",
    "merge_shard_results",
    "migrated_validator",
    "partition_graph",
    "plan_cache_clear",
    "plan_cache_info",
    "satisfies_directives",
    "strongly_satisfies",
    "validate",
    "validate_jsonl",
    "validate_shard",
    "weakly_satisfies",
]

# Exported name -> the submodule that defines it; keep in step with the
# TYPE_CHECKING imports above (tests/test_meta.py pins both).
_EXPORTS = {
    "CDCConsumer": "cdc",
    "CDCResult": "cdc",
    "ViolationEvent": "cdc",
    "ENGINES": "engine",
    "make_validator": "engine",
    "satisfies_directives": "engine",
    "strongly_satisfies": "engine",
    "validate": "engine",
    "weakly_satisfies": "engine",
    "IncrementalValidator": "incremental",
    "migrated_validator": "incremental",
    "IndexedValidator": "indexed",
    "JournalWriter": "journal",
    "MutationEvent": "journal",
    "MutationJournal": "journal",
    "NaiveValidator": "naive",
    "ParallelValidator": "parallel",
    "merge_shard_results": "parallel",
    "validate_shard": "parallel",
    "ValidationPlan": "plan",
    "compile_plan": "plan",
    "plan_cache_clear": "plan",
    "plan_cache_info": "plan",
    "GraphShard": "shard",
    "partition_graph": "shard",
    "StreamValidator": "stream",
    "validate_jsonl": "stream",
    "ALL_RULES": "violations",
    "DIRECTIVE_RULES": "violations",
    "EXTENSION_RULES": "violations",
    "RULES": "violations",
    "STRONG_RULES": "violations",
    "WEAK_RULES": "violations",
    "ValidationReport": "violations",
    "Violation": "violations",
}


__getattr__ = _lazy_exports(globals(), _EXPORTS)
