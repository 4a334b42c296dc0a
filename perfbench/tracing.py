"""Span recording around the public entry points of each layer.

Loaded only by ``launch.py --trace-out``: an untraced server process
never imports this module, so untraced runs carry no wrappers at all.

Each wrapped call appends one span ``(name, op, thread, start, end)``
to an in-memory list; :meth:`Recorder.dump` writes them out when the
server exits.  ``op`` ties a span to the request kind it served
(``nwc``, ``knwc``, ``insert`` ...), so the benchmark can subtract the
spans of a request kind from its client-observed latency.  Times are
``time.monotonic()``, the clock ``run.py`` also uses for its
window bounds (system-wide on Linux).
"""

from __future__ import annotations

import functools
import json
import threading
import time


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def wrap(self, name: str, fn, op_of=None):
        spans = self.spans
        clock = time.monotonic
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            op = op_of(args, result) if op_of is not None else None
            spans.append((name, op, ident(), start, clock()))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, op_of=None) -> None:
        """Replace ``owner.attr`` (a module function, method or
        classmethod) by a traced version."""
        raw = vars(owner).get(attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(
                self.wrap(name, raw.__func__, op_of)))
        else:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), op_of))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _op_of_payload(args, result):
    return result.get("op") if isinstance(result, dict) else None


def _op_of_frame(args, result):
    return args[0].get("op") if args and isinstance(args[0], dict) else None


def _op_of_cache_key(args, result):
    key = args[1] if len(args) > 1 else None
    return key[0] if isinstance(key, tuple) and key else None


def _const(op):
    return lambda args, result: op


def install() -> Recorder:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.core import NWCEngine
    from repro.grid import DensityGrid
    from repro.index import FlatRTree
    from repro.index.flat import FlatIWP
    from repro.serve import cache, durability, protocol, server
    from repro.storage import wal

    rec = Recorder()
    # repro.serve.protocol: wire decode/parse and serialize/encode.
    rec.patch(protocol, "decode_line", "protocol.decode", _op_of_payload)
    rec.patch(protocol, "parse_nwc", "protocol.parse", _const("nwc"))
    rec.patch(protocol, "parse_knwc", "protocol.parse", _const("knwc"))
    rec.patch(protocol, "parse_point", "protocol.parse", _const("update"))
    rec.patch(protocol, "serialize_nwc", "protocol.encode", _const("nwc"))
    rec.patch(protocol, "serialize_knwc", "protocol.encode", _const("knwc"))
    rec.patch(protocol, "encode_line", "protocol.encode", _op_of_frame)
    # repro.serve.cache
    rec.patch(cache.ResultCache, "get", "cache.get", _op_of_cache_key)
    # repro.core engine
    rec.patch(NWCEngine, "nwc", "engine.nwc", _const("nwc"))
    rec.patch(NWCEngine, "knwc", "engine.knwc", _const("knwc"))
    rec.patch(NWCEngine, "insert", "index.update", _const("update"))
    rec.patch(NWCEngine, "delete", "index.update", _const("update"))
    # repro.index / repro.grid structure rebuilds
    rec.patch(FlatRTree, "from_tree", "index.snapshot_flat", _const("update"))
    rec.patch(FlatIWP, "__init__", "index.snapshot_iwp", _const("update"))
    rec.patch(DensityGrid, "build", "grid.rebuild", _const("update"))
    # repro.storage + repro.serve.durability
    rec.patch(wal.WriteAheadLog, "append", "wal.append", _const("update"))
    rec.patch(durability, "load_tree", "pages.checkpoint_load")
    # repro.sub: the live path and the replay path import it by name.
    rec.patch(server, "reconcile", "sub.reconcile", _const("update"))
    rec.patch(durability, "reconcile", "sub.reconcile", _const("update"))
    return rec
