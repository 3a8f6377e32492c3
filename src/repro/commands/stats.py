"""``pgschema stats``: profile a graph instance."""

import json

from ..pg.stats import profile_graph, profile_to_registry
from . import load_graph


def run(args) -> int:
    graph = load_graph(args.graph)
    profile = profile_graph(graph)
    if args.json:
        from ..obs.export import attach_cache_stats, metrics_payload
        from ..perf import ProfileStore, perf_summary

        registry = profile_to_registry(profile)
        # occupancy/hit/miss/eviction gauges for the plan cache, the sat
        # verdict caches and the compiled-scalar registry -- the same
        # numbers the service's /v1/stats endpoint reports
        attach_cache_stats(registry)
        payload = metrics_payload(registry)
        payload["perf"] = perf_summary(ProfileStore(args.perf_store))
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in profile.summary_lines():
            print(line)
    return 0
