"""Per-layer metrics of a traced run.

Inputs are the spans the traced server processes wrote (see
``tracing.py``), the program's own ``health`` and ``metrics`` scrapes
taken just before and just after the timed window, and the client's
records of that window.  A layer the workload does not reach reports 0.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict

UPDATE_TAGS = ("insert", "delete", "update")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _tag(op):
    return "update" if op in UPDATE_TAGS else op


def load_spans(path: str, role: str) -> list[dict]:
    """Spans of one process, each marked ``root`` unless it ran inside
    another wrapped call on the same thread."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    spans = [{"name": n, "op": _tag(op), "thread": t, "start": s, "end": e,
              "role": role, "root": True}
             for n, op, t, s, e in raw]
    by_thread = defaultdict(list)
    for span in spans:
        by_thread[span["thread"]].append(span)
    for group in by_thread.values():
        # Parents start no later and end no earlier than their children.
        group.sort(key=lambda sp: (sp["start"], -sp["end"]))
        stack: list[dict] = []
        for span in group:
            while stack and stack[-1]["end"] < span["end"]:
                stack.pop()
            if stack:
                span["root"] = False
            stack.append(span)
    return spans


def flatten(metrics_json: dict) -> dict:
    """``{(family, labels): value}`` with histograms as ``(sum, count)``."""
    out = {}
    for family, body in metrics_json.items():
        for labels, value in body["values"].items():
            key = (family, tuple(sorted(_LABEL.findall(labels))))
            out[key] = ((value["sum"], value["count"])
                        if isinstance(value, dict) else value)
    return out


class Delta:
    """Counter and histogram growth between two flattened scrapes."""

    def __init__(self, before: dict, after: dict) -> None:
        self.before, self.after = before, after

    def _select(self, family: str, labels: dict):
        for (fam, lab), value in self.after.items():
            if fam == family and all((k, v) in lab for k, v in labels.items()):
                yield value, self.before.get((fam, lab))

    def count(self, family: str, **labels) -> float:
        return sum(a - (b or 0.0) for a, b in self._select(family, labels))

    def hist(self, family: str, **labels) -> tuple[float, float]:
        total = n = 0.0
        for (s, c), prev in self._select(family, labels):
            total += s - (prev[0] if prev else 0.0)
            n += c - (prev[1] if prev else 0.0)
        return total, n


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean_ms(spans) -> float:
    spans = list(spans)
    return _ratio(sum(s["end"] - s["start"] for s in spans), len(spans)) * 1e3


def compute(*, spans: list[dict], window: tuple[float, float],
            records: list[dict], front: Delta, fleet: Delta | None,
            shards: int, health: dict,
            model_ratio: float) -> dict[str, float]:
    t0, t1 = window
    live = [s for s in spans if s["start"] >= t0 and s["end"] <= t1]
    boot = [s for s in spans if s["end"] < t0]
    front_live = [s for s in live if s["role"] == "front"]

    def named(name, pool=live, root=True):
        return [s for s in pool
                if s["name"] == name and (s["root"] or not root)]

    def seconds(pool):
        return sum(s["end"] - s["start"] for s in pool)

    ok = [r for r in records if "resp" in r]
    by_op = defaultdict(list)
    for r in ok:
        by_op[_tag(r["op"])].append(r)
    n_requests = len(ok)
    n_updates = len(by_op["update"])
    out: dict[str, float] = {}

    request_ops = ("nwc", "knwc", "update")
    decode = [s for s in front_live if s["op"] in request_ops
              and s["name"] in ("protocol.decode", "protocol.parse")]
    encode = [s for s in front_live if s["op"] in request_ops
              and s["name"] == "protocol.encode"]
    out["protocol.decode_us"] = _ratio(seconds(decode), n_requests) * 1e6
    out["protocol.encode_us"] = _ratio(seconds(encode), n_requests) * 1e6

    hits = front.count("nwc_cache_events_total", outcome="hit")
    misses = front.count("nwc_cache_events_total", outcome="miss")
    carried = front.count("nwc_cache_events_total", outcome="carried")
    invalidated = front.count("nwc_cache_events_total", outcome="invalidated")
    out["cache.hit_ratio"] = _ratio(hits, hits + misses)
    out["cache.carried_ratio"] = _ratio(carried, carried + invalidated)
    out["cache.lookup_us"] = _mean_ms(named("cache.get", front_live)) * 1e3

    for op, name in (("nwc", "server.unattributed_nwc_ms"),
                     ("update", "server.unattributed_update_ms")):
        reqs = by_op[op]
        client = _ratio(sum(r["t1"] - r["t0"] for r in reqs), len(reqs))
        layers = _ratio(seconds(s for s in front_live
                                if s["root"] and s["op"] == op), len(reqs))
        out[name] = (client - layers) * 1e3 if reqs else 0.0

    out["engine.nwc_ms"] = _mean_ms(named("engine.nwc"))
    out["engine.knwc_ms"] = _mean_ms(named("engine.knwc"))
    knwc_io = [r["resp"]["stats"]["node_accesses"] for r in by_op["knwc"]
               if not r["resp"].get("cached")]
    out["engine.knwc_node_accesses"] = _ratio(sum(knwc_io), len(knwc_io))
    out["analysis.model_ratio"] = model_ratio

    flats = named("index.snapshot_flat", root=False)
    rebuild = flats + named("index.snapshot_iwp", root=False)
    out["index.update_ms"] = _mean_ms(named("index.update"))
    out["index.snapshot_rebuild_ms"] = _ratio(seconds(rebuild),
                                              len(flats)) * 1e3
    out["index.snapshot_rebuilds_per_update"] = _ratio(len(flats), n_updates)
    out["grid.rebuild_ms"] = _ratio(
        seconds(named("grid.rebuild", root=False)), n_updates) * 1e3

    appends = front.count("wal_appends_total")
    out["wal.append_ms"] = _mean_ms(named("wal.append"))
    out["wal.bytes_per_update"] = _ratio(front.count("wal_bytes_total"),
                                         appends)
    out["wal.fsyncs_per_update"] = _ratio(front.count("wal_fsyncs_total"),
                                          appends)

    loads = [s for s in boot if s["name"] == "pages.checkpoint_load"
             and s["role"] == "front"]
    load_s = loads[-1]["end"] - loads[-1]["start"] if loads else 0.0
    out["pages.checkpoint_load_s"] = load_s
    recovery = health.get("durability", {}).get("recovery", {})
    out["durability.replay_ms_per_record"] = _ratio(
        recovery.get("wall_s", 0.0) - load_s,
        recovery.get("replayed", 0)) * 1e3

    reevals = front.count("sub_reevals_total")
    out["sub.reevals_per_update"] = _ratio(reevals, n_updates)
    out["sub.reconcile_ms"] = _mean_ms(named("sub.reconcile"))
    out["sub.useful_ratio"] = _ratio(
        front.count("sub_notifications_total")
        + front.count("sub_dropped_total"), reevals)

    fan_sum, fan_n = front.hist("shard_fanout")
    skips = front.count("shard_prune_skips_total")
    out["shard.fanout"] = _ratio(fan_sum, fan_n)
    out["shard.prune_ratio"] = _ratio(skips, skips + fan_sum)
    out["shard.refetches_per_query"] = _ratio(
        front.count("shard_refetches_total"), fan_n)
    if fleet is not None:
        def workers(*ops):
            total = n = 0.0
            for op in ops:
                for shard in map(str, range(shards)):
                    s, c = fleet.hist("serve_request_seconds", op=op,
                                      source="engine", shard=shard)
                    total, n = total + s, n + c
            return total, n

        scatter_s, scatter_n = workers("nwc_scatter")
        coord_s, coord_n = front.hist("serve_request_seconds", op="nwc",
                                      source="engine")
        out["shard.worker_nwc_ms"] = _ratio(scatter_s, scatter_n) * 1e3
        out["shard.rpc_merge_ms"] = (_ratio(coord_s, coord_n)
                                     - _ratio(scatter_s, coord_n)) * 1e3
        out["shard.worker_update_ms"] = _ratio(
            *workers("insert", "delete")) * 1e3
    else:
        out["shard.worker_nwc_ms"] = out["shard.rpc_merge_ms"] = 0.0
        out["shard.worker_update_ms"] = 0.0
    return out
