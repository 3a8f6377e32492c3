"""``pgschema sat``: object-type satisfiability (Theorem 3)."""

import sys

from ..satisfiability import SatisfiabilityChecker, sat_cache_info
from . import budget_from_args, load_schema


def run(args) -> int:
    schema = load_schema(args.schema, check=False)
    checker = SatisfiabilityChecker(
        schema,
        bounded_max_nodes=args.max_witness_nodes,
        budget=budget_from_args(args),
        on_budget=args.on_budget,
        analysis_precheck=not args.no_analysis,
    )
    if args.type_name:
        results = [
            checker.check_type(args.type_name, find_witness=not args.no_witness)
        ]
    else:
        report = checker.check_schema(
            find_witnesses=not args.no_witness,
            jobs=args.jobs,
            engine=args.engine,
        )
        results = [report.types[name] for name in sorted(report.types)]
    any_unsat = False
    any_unknown = False
    for result in results:
        type_name = result.type_name
        if result.verdict == "unknown":
            any_unknown = True
            reason = f" ({result.reason})" if result.reason is not None else ""
            print(f"{type_name}: UNKNOWN (budget exhausted){reason}")
        elif result.verdict == "sat":
            finite = result.finitely_satisfiable
            note = (
                f"finite witness with {result.witness.num_nodes} node(s)"
                if finite
                else "satisfiable (no finite witness found at this bound; "
                "possibly only infinite models)"
            )
            print(f"{type_name}: SATISFIABLE ({note})")
        else:
            any_unsat = True
            print(f"{type_name}: UNSATISFIABLE")
    if args.profile:
        _print_profile(checker)
    if any_unsat:
        return 1
    return 3 if any_unknown else 0


def _print_profile(checker) -> None:
    profile = checker.last_profile
    if profile is not None:
        wins = profile.get("wins", {})
        won = ", ".join(
            f"{engine}={count}" for engine, count in sorted(wins.items())
        ) or "none"
        print(
            f"  engine={profile['engine']} executor={profile['executor']} "
            f"jobs={profile['jobs']} units={profile['units']}",
            file=sys.stderr,
        )
        print(f"  decided by: {won}", file=sys.stderr)
    info = sat_cache_info()
    print(
        f"  sat cache: {info['hits']} hit(s), {info['misses']} miss(es) over all "
        f"processes; stored in this one: {info['types']} type / {info['fields']} "
        f"field / {info['bounded']} bounded verdict(s) over {info['schemas']} schema(s)",
        file=sys.stderr,
    )
    print(
        f"  label cache: {info['label_hits']} hit(s), {info['label_misses']} "
        f"miss(es) over all processes; stored in this one: "
        f"{info['label_entries']} label set(s)",
        file=sys.stderr,
    )
