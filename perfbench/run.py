"""The repository benchmark: one-shot CLI, warm service and CDC replay.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

``--workload`` is ``oneshot``, ``serve``, ``cdc`` or ``all``.  With
``--trace 0`` the last stdout line is a JSON object whose ``metrics`` are
the gated end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are
the per-layer metrics.  The lines before it print every metric by name and
unit, the code-path stamp and any failed operation.  The full record
(spans included) is written to ``.perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("oneshot", "serve", "cdc")


def load_spec(checkout_root: str) -> dict:
    with open(os.path.join(checkout_root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def workload_module(name: str):
    import importlib

    return importlib.import_module(name)


def run_workload(name: str, checkout, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    from common import Recorder, code_path_stamp, median

    recorder = Recorder(trace)
    started = time.perf_counter()
    result = workload_module(name).run(checkout, seed, seconds, trace, recorder)
    e2e = {
        "setup_s": (median(result.setup_s), "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "ops_per_s": (result.e2e["ops_per_s"], "1/s"),
        "validate_ms": (result.e2e["validate_ms"], "ms"),
    }
    failures = [op.detail for op in result.ops if not op.ok]
    attempted = len(result.ops)
    layers = {}
    if trace:
        layers = {metric["name"]: (0.0, metric["unit"]) for metric in spec["per_layer"]}
        layers.update(result.layers)
        layers.update(result.traced_named)
        untraced = result.named.get(result.primary, (0.0,))[0]
        traced = result.traced_named.get(result.primary, (0.0,))[0]
        slower = (untraced - traced) if result.primary.endswith("_per_s") else (traced - untraced)
        # 0 when either half completed no operation
        overhead = slower / untraced * 100.0 if untraced and traced else 0.0
        layers["trace.overhead_pct"] = (overhead, "%")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "error_share": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:20],
        "samples": result.samples,
        "stamp": {**code_path_stamp(), **result.stamp},
        "end_to_end": e2e,
        "named": result.named,
        "traced_named": result.traced_named,
        "layers": layers,
        "wall_s": time.perf_counter() - started,
        "spans": recorder.spans,
    }
    os.makedirs(checkout.out, exist_ok=True)
    path = os.path.join(checkout.out, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    print(f"[{name}] seed={record['seed']} trace={int(record['trace'])} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"error_share={record['error_share']:.4f} samples={record['samples']}")
    stamp = record["stamp"]
    print(f"[{name}] stamp: usable_cores={stamp['usable_cores']} "
          f"validation_executor={stamp.get('validation_executor')} "
          f"sat_executor={stamp.get('sat_executor')} "
          f"env={stamp['environment']['digest']}")
    for title, metrics in (("end-to-end", record["end_to_end"]), ("workload", record["named"])):
        for metric, (value, unit) in metrics.items():
            print(f"[{name}] {title:10s} {metric:36s} {value:12.4f} {unit}")
    if record["trace"]:
        for metric, (value, unit) in record["traced_named"].items():
            untraced = record["named"].get(metric, (0.0,))[0]
            print(f"[{name}] traced     {metric:36s} {value:12.4f} {unit} (untraced {untraced:.4f})")
        for metric, (value, unit) in sorted(record["layers"].items()):
            print(f"[{name}] layer      {metric:36s} {value:12.4f} {unit}")
    for failure in record["failures"]:
        print(f"[{name}] FAILED: {failure}")


def result_line(records: list[dict], spec: dict, trace: bool) -> dict:
    """The final JSON object: BENCHMARK.json's metrics for this run
    (prefixed by workload when ``--workload all`` ran several)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = "layers" if trace else "end_to_end"
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for metric in wanted:
            value = record[source][metric["name"]][0]
            metrics[prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from common import Checkout

    checkout = Checkout(os.getcwd())
    if not checkout.has_program():
        print(f"perfbench: no program sources under {checkout.src}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, checkout.src)
    spec = load_spec(checkout.root)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, checkout, spec, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        records.append(record)
    sys.stdout.flush()
    print(json.dumps(result_line(records, spec, bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
