"""The benchmark's catalogue: workloads, metrics, units and intent.

``BENCHMARK.json`` at the repository root is the machine-read contract
(name, unit, direction, bound).  This module is the human-read side of
the same catalogue: why each workload exists and, for every per-layer
metric, which end-to-end (client-observed) metric it should move on
which workload.  ``selfcheck.py`` asserts that the two agree, so a
metric cannot be added to one and forgotten in the other.
"""

from __future__ import annotations

import json
import os

WORKLOADS = {
    "reads": "Engine-bound baseline: Gaussian 10k points, every NWC/kNWC at a "
             "fresh data-biased location, so the result cache never hits; the "
             "bypass case for update, cache and fleet changes.",
    "updates": "Durable server (WAL, 200 detached standing queries, "
               "recovery boot) under two writers mixing inserts, deletes and "
               "NWC on a 64-location hot pool: update, snapshot, WAL, cache, "
               "reconcile.",
    "fleet": "Same points and NWC locations as reads on a 2-shard "
             "scatter-gather fleet with inserts and deletes: the only "
             "workload that runs repro.shard.",
}

#: name -> (unit, better, bound).  Reported by every untraced run.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_rps": ("req/s", "higher", 0.25),
    "nwc_p50_ms": ("ms", "lower", 0.25),
    "nwc_p95_ms": ("ms", "lower", 0.25),
    "nwc_node_accesses": ("count", "lower", 0.25),
    "server_rss_mb": ("MB", "lower", 0.15),
}

#: Client-observed latencies of ops that only some workloads send.  The
#: result line must carry every end-to-end metric on every workload, so
#: these ride in the traced run's per-layer set (taken from its
#: untraced pass) and on the human-readable summary line.
CLIENT = {
    "client.knwc_p50_ms": ("ms", "lower", "kNWC latency; reads only"),
    "client.knwc_p90_ms": ("ms", "lower", "kNWC latency; reads only"),
    "client.update_p50_ms": ("ms", "lower",
                             "insert+delete ack latency; updates, fleet"),
    "client.update_p95_ms": ("ms", "lower",
                             "insert+delete ack latency; updates, fleet"),
}

#: name -> (unit, better, end-to-end metric it should move, on workload).
#: A layer a workload does not reach reports 0 there.
PER_LAYER = {
    "protocol.decode_us": ("us", "lower", "nwc_p50_ms", "updates"),
    "protocol.encode_us": ("us", "lower", "nwc_p50_ms", "updates"),
    "cache.hit_ratio": ("ratio", "higher", "throughput_rps, nwc_p50_ms",
                        "updates"),
    "cache.carried_ratio": ("ratio", "higher", "nwc_p95_ms", "updates"),
    "cache.lookup_us": ("us", "lower", "nwc_p50_ms", "updates"),
    "server.unattributed_nwc_ms": ("ms", "lower", "nwc_p95_ms", "reads"),
    "server.unattributed_update_ms": ("ms", "lower", "client.update_p95_ms",
                                      "updates"),
    "engine.nwc_ms": ("ms", "lower", "nwc_p50_ms", "reads"),
    "engine.knwc_ms": ("ms", "lower", "client.knwc_p50_ms", "reads"),
    "engine.knwc_node_accesses": ("count", "lower", "client.knwc_p50_ms",
                                  "reads"),
    "analysis.model_ratio": ("ratio", "lower", "nwc_node_accesses", "reads"),
    "index.update_ms": ("ms", "lower", "client.update_p50_ms",
                        "updates, fleet"),
    "index.snapshot_rebuild_ms": ("ms", "lower",
                                  "client.update_p50_ms, setup_s",
                                  "updates, fleet"),
    "index.snapshot_rebuilds_per_update": ("count", "lower",
                                           "client.update_p50_ms",
                                           "updates, fleet"),
    "grid.rebuild_ms": ("ms", "lower", "client.update_p50_ms", "updates"),
    "wal.append_ms": ("ms", "lower", "client.update_p50_ms", "updates"),
    "wal.bytes_per_update": ("B", "lower", "client.update_p50_ms", "updates"),
    "wal.fsyncs_per_update": ("count", "lower", "client.update_p50_ms",
                              "updates"),
    "pages.checkpoint_load_s": ("s", "lower", "setup_s", "updates"),
    "durability.replay_ms_per_record": ("ms", "lower", "setup_s", "updates"),
    "sub.reevals_per_update": ("count", "lower", "client.update_p50_ms",
                               "updates"),
    "sub.reconcile_ms": ("ms", "lower", "client.update_p50_ms", "updates"),
    "sub.useful_ratio": ("ratio", "higher", "client.update_p50_ms",
                         "updates"),
    "shard.fanout": ("count", "lower", "nwc_p50_ms", "fleet"),
    "shard.prune_ratio": ("ratio", "higher", "nwc_p50_ms", "fleet"),
    "shard.refetches_per_query": ("count", "lower", "nwc_p50_ms", "fleet"),
    "shard.worker_nwc_ms": ("ms", "lower", "nwc_p50_ms", "fleet"),
    "shard.rpc_merge_ms": ("ms", "lower", "nwc_p50_ms", "fleet"),
    "shard.worker_update_ms": ("ms", "lower", "client.update_p50_ms",
                               "fleet"),
    "bench.trace_overhead_pct": ("%", "lower", "none (cost of measuring)",
                                 "all"),
} | {name: (unit, better, "itself", where)
     for name, (unit, better, where) in CLIENT.items()}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalogue describes."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 12,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better, *_) in PER_LAYER.items()],
    }


def load_benchmark_json(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
