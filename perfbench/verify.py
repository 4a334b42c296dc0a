"""Answer verification, run after the timed window has closed.

A twin engine is built from the same points the server got (plus the
pre-boot WAL tail on ``updates``).  Acknowledged updates are replayed
on it in version order, and every recorded answer — cache hits
included — must equal the twin's answer at the version the response
carries, byte for byte in canonical JSON.  The fleet is checked against
the same single ``NWC_STAR`` engine, which is the coordinator's NWC
canon.  Each distinct (query, version) pair is computed once.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict

import inputs

UPDATE_OPS = ("insert", "delete")
GRID_CELL = 25.0


def engine_over(tree):
    """The engine every benchmark server and twin runs: ``NWC_STAR`` in
    the default execution mode, with a density grid counted from
    ``tree``."""
    from repro.core import NWCEngine, Scheme
    from repro.geometry import Rect
    from repro.grid import DensityGrid

    extent = Rect(*inputs.EXTENT)
    grid = DensityGrid.build(tree.iter_objects(), extent, GRID_CELL)
    return NWCEngine(tree, Scheme.NWC_STAR, grid=grid, extent=extent)


def make_engine(coords):
    """:func:`engine_over` a bulk-loaded tree of ``coords`` (oid = row)."""
    from repro.geometry import PointObject
    from repro.index import RStarTree

    return engine_over(RStarTree.bulk_load(
        [PointObject(i, float(x), float(y))
         for i, (x, y) in enumerate(coords)]))


def canonical(result) -> str:
    return json.dumps(result, sort_keys=True)


def _answer(engine, op: str, x: float, y: float) -> str:
    from repro.core import KNWCQuery, NWCQuery
    from repro.serve import protocol

    query = NWCQuery(x, y, inputs.WINDOW, inputs.WINDOW, inputs.N_OBJECTS)
    if op == "nwc":
        result = protocol.serialize_nwc(engine.nwc(query))
    else:
        result = protocol.serialize_knwc(
            engine.knwc(KNWCQuery(query, inputs.K, inputs.M)))
    # The wire form: what the server's encoder would have produced.
    return canonical(json.loads(protocol.encode_line(result)))


def _apply(engine, op: str, oid: int, x: float, y: float) -> bool:
    from repro.geometry import PointObject

    obj = PointObject(oid, x, y)
    if op == "insert":
        engine.insert(obj)
        return True
    return engine.delete(obj)


class Twin:
    """The reference engine, advanced one acknowledged update at a
    time."""

    def __init__(self, coords, wal_tail=()) -> None:
        self.engine = make_engine(coords)
        self.version = 0
        for op, oid, x, y in wal_tail:
            if _apply(self.engine, op, oid, x, y):
                self.version += 1


def verify(coords, wal_tail, records: list[dict], ps, tag: str,
           workers: int = 2) -> tuple[int, list[str]]:
    """Check every successful response in ``records``.

    The distinct (query, version) pairs are cut, in version order, into
    ``workers`` contiguous slices, each checked by its own twin in a
    worker process started through ``ps`` (the servers are stopped by
    now, so the cores are free).  Returns ``(answers_checked,
    problems)``; ``problems`` is empty when every answer matched.
    """
    updates = sorted((r for r in records
                      if r["op"] in UPDATE_OPS and "resp" in r),
                     key=lambda r: r["resp"]["version"])
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for r in records:
        if r["op"] not in UPDATE_OPS and "resp" in r:
            groups[(r["resp"]["version"], r["op"], r["x"], r["y"])].append(r)
    items = sorted(groups.items(), key=lambda item: item[0][0])
    size = -(-len(items) // workers) or 1
    slices = [items[i:i + size] for i in range(0, len(items), size)] or [[]]
    paths, procs = [], []
    for i, part in enumerate(slices):
        last = i == len(slices) - 1
        upto = part[-1][0][0] if part and not last else math.inf
        path = os.path.join(ps.scratch, f"verify-{tag}-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"coords": coords.tolist(), "wal_tail": wal_tail,
                       "updates": [u for u in updates
                                   if u["resp"]["version"] <= upto],
                       "items": part}, fh)
        paths.append(path)
        procs.append(ps.spawn([__file__, path]))
    for proc in procs:
        proc.wait()
    ps.stop(procs)
    checked, problems = 0, []
    for path, proc in zip(paths, procs):
        try:
            with open(path + ".out", encoding="utf-8") as fh:
                n, bad = json.load(fh)
        except FileNotFoundError:
            n, bad = 0, [f"verification worker exited with {proc.returncode}"]
        checked += n
        problems += bad
    return checked, list(dict.fromkeys(problems))


def _check(coords, wal_tail, updates: list[dict],
           items: list) -> tuple[int, list[str]]:
    """One slice: replay ``updates`` in version order on a fresh twin,
    checking each query group at the version its responses carry."""
    twin = Twin(coords, wal_tail)
    problems: list[str] = []
    checked = 0
    pending = iter(updates)
    upcoming = next(pending, None)
    for (version, op, x, y), group in items:
        while upcoming is not None and upcoming["resp"]["version"] <= version:
            problems += _replay(twin, upcoming)
            upcoming = next(pending, None)
        if twin.version != version:
            problems.append(f"answers at version {version} but the "
                            f"acknowledged updates reach {twin.version}")
            continue
        expected = _answer(twin.engine, op, x, y)
        for r in group:
            checked += 1
            if canonical(r["resp"]["result"]) != expected:
                problems.append(
                    f"{op} at ({x!r}, {y!r}) version {version}: server "
                    f"{canonical(r['resp']['result'])[:200]} != "
                    f"twin {expected[:200]}")
    while upcoming is not None:
        problems += _replay(twin, upcoming)
        upcoming = next(pending, None)
    return checked, problems


def _replay(twin: Twin, record: dict) -> list[str]:
    ack = record["resp"]
    changed = _apply(twin.engine, record["op"], record["oid"], record["x"],
                     record["y"])
    if changed:
        twin.version += 1
    problems = []
    if record["op"] == "delete" and ack.get("deleted") is not changed:
        problems.append(f"delete of {record['oid']}: server says "
                        f"{ack.get('deleted')}, twin says {changed}")
    if ack["version"] != twin.version:
        problems.append(f"{record['op']} of {record['oid']} acknowledged "
                        f"at version {ack['version']}, twin is at "
                        f"{twin.version}")
    if ack.get("size") != twin.engine.tree.size:
        problems.append(f"{record['op']} of {record['oid']}: server size "
                        f"{ack.get('size')} != twin {twin.engine.tree.size}")
    return problems


if __name__ == "__main__":
    # Worker: ``verify.py JOB.json`` checks one slice, writes JOB.json.out.
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = _check(job["coords"], job["wal_tail"], job["updates"],
                    job["items"])
    with open(sys.argv[1] + ".out", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
