"""Seeded inputs of every workload.

``--seed`` is the only source of randomness: points, query locations,
op streams, the standing queries and the pre-boot WAL tail all come
from ``numpy.random.default_rng([seed, stream])``.  Each connection's
op stream is a fixed sequence much longer than any run needs, so every
run executes a prefix of the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

EXTENT = (0.0, 0.0, 10_000.0, 10_000.0)
WINDOW = 150.0           # window length and width (also the fleet halo)
N_OBJECTS = 8            # objects per window
K, M = 4, 1              # kNWC groups and allowed overlap
CONNECTIONS = 2
_MEAN, _STD = 5_000.0, 2_000.0

#: Per-workload sizes; ``tiny`` shrinks them for the self-check.
SIZES = {
    "full": {"gaussian": 10_000, "uniform": 50_000, "subs": 200,
             "wal_tail": 50, "hot": 64, "stream": 20_000, "warmup": 8},
    "tiny": {"gaussian": 3_000, "uniform": 3_000, "subs": 3, "wal_tail": 4,
             "hot": 16, "stream": 2_000, "warmup": 4},
}

# Stream ids for the seed sequence (fixed: changing one changes inputs).
_POINTS_GAUSS, _POINTS_UNIFORM, _LOCATIONS, _KINDS, _UPDATES = range(5)
_SUBS, _HOT, _TAIL, _WARMUP = range(5, 9)


@dataclass
class Workload:
    """Everything a run sends to, or boots, the program."""

    name: str
    coords: np.ndarray                      # (N, 2); oid = row index
    streams: list[list[tuple]]              # per connection
    warmup: list[tuple]
    subs: list[tuple[float, float]] = field(default_factory=list)
    wal_tail: list[tuple] = field(default_factory=list)


def _rng(seed: int, stream: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *more])


def _gaussian(rng: np.random.Generator, count: int) -> np.ndarray:
    """The paper's synthetic shape (mean 5000, std 2000), redrawn
    rather than clamped so no two points pile up on the border."""
    out = np.empty((0, 2))
    while len(out) < count:
        draw = rng.normal(_MEAN, _STD, size=(2 * count, 2))
        keep = np.all((draw >= EXTENT[0]) & (draw <= EXTENT[2]), axis=1)
        out = np.concatenate([out, draw[keep]])
    return out[:count]


def _uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(EXTENT[0], EXTENT[2], size=(count, 2))


def _spread(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` points of the unit square from a Halton sequence under a
    seeded random shift: every prefix covers the square evenly, so the
    mean cost of a run's prefix varies far less from seed to seed than
    with independent draws."""
    out = np.empty((count, 2))
    for dim, base in enumerate((2, 3)):
        for i in range(count):
            f, k, value = 1.0, i + 1, 0.0
            while k:
                f /= base
                value += f * (k % base)
                k //= base
            out[i, dim] = value
    return (out + rng.random(2)) % 1.0


def _spread_gaussian(rng: np.random.Generator, count: int) -> np.ndarray:
    """Query locations with the data's (truncated) Gaussian law, mapped
    from :func:`_spread` through the inverse CDF."""
    law = NormalDist(_MEAN, _STD)
    lo, hi = law.cdf(EXTENT[0]), law.cdf(EXTENT[2])
    return np.vectorize(law.inv_cdf)(lo + _spread(rng, count) * (hi - lo))


def _spread_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    return EXTENT[0] + _spread(rng, count) * (EXTENT[2] - EXTENT[0])


def _kinds(rng: np.random.Generator, weights: dict[str, float],
           count: int) -> list[str]:
    """An op sequence whose every prefix holds each op in its exact
    proportion (to within one), starting at a seeded phase."""
    names = list(weights)
    total = sum(weights.values())
    phase = int(rng.integers(100))
    done = dict.fromkeys(names, 0)
    out = []
    for i in range(phase + count):
        op = max(names, key=lambda n: weights[n] / total * (i + 1) - done[n])
        done[op] += 1
        out.append(op)
    return out[phase:]


def _xy(row) -> tuple[float, float]:
    return float(row[0]), float(row[1])


def _mixed_stream(kinds: list[str], locations, inserts,
                  deletes) -> list[tuple]:
    """One connection's ops: ``(op, oid, x, y)`` tuples, where queries
    carry ``oid=None``.  Queries take the next location; updates take
    the next insert point or delete victim."""
    ops, ins, dele = [], iter(inserts), iter(deletes)
    for op, location in zip(kinds, locations):
        if op == "insert":
            ops.append(("insert", *next(ins)))
        elif op == "delete":
            ops.append(("delete", *next(dele)))
        else:
            ops.append((op, None, *_xy(location)))
    return ops


def _victims(coords: np.ndarray, order: np.ndarray) -> list[tuple]:
    return [(int(oid), *_xy(coords[oid])) for oid in order]


def make(name: str, seed: int, size: str = "full") -> Workload:
    """The inputs of workload ``name`` for ``seed``."""
    s = SIZES[size]
    length = s["stream"]
    if name in ("reads", "fleet"):
        coords = _gaussian(_rng(seed, _POINTS_GAUSS), s["gaussian"])
        # The same location sequence on both workloads, so a fleet
        # answer compares directly with a single-engine one.
        locations = [_spread_gaussian(_rng(seed, _LOCATIONS, c), length)
                     for c in range(CONNECTIONS)]
        warmup = [("nwc", None, *_xy(p))
                  for p in _gaussian(_rng(seed, _WARMUP), s["warmup"])]
        if name == "reads":
            streams = [_mixed_stream(_kinds(_rng(seed, _KINDS, c),
                                            {"nwc": 0.85, "knwc": 0.15},
                                            length),
                                     locations[c], [], [])
                       for c in range(CONNECTIONS)]
            return Workload(name, coords, streams, warmup)
        victims = _rng(seed, _UPDATES).permutation(len(coords))
        streams = []
        for c in range(CONNECTIONS):
            upd = _rng(seed, _UPDATES, c)
            first = len(coords) + c * length
            inserts = [(first + i, *_xy(p))
                       for i, p in enumerate(_gaussian(upd, length))]
            streams.append(_mixed_stream(
                _kinds(_rng(seed, _KINDS, CONNECTIONS + c),
                       {"nwc": 0.80, "insert": 0.12, "delete": 0.08},
                       length),
                locations[c], inserts,
                _victims(coords, victims[c::CONNECTIONS])))
        return Workload(name, coords, streams, warmup)
    if name != "updates":
        raise ValueError(f"unknown workload {name!r}")
    coords = _uniform(_rng(seed, _POINTS_UNIFORM), s["uniform"])
    hot = _spread_uniform(_rng(seed, _HOT), s["hot"])
    victims = _rng(seed, _UPDATES).permutation(len(coords))
    tail_n = s["wal_tail"]
    tail_kinds = _kinds(_rng(seed, _TAIL), {"insert": 0.25, "delete": 0.15},
                        tail_n)
    d = tail_kinds.count("delete")
    tail = _mixed_stream(
        tail_kinds, [None] * tail_n,
        [(len(coords) + i, *_xy(p))
         for i, p in enumerate(_uniform(_rng(seed, _TAIL, 1), tail_n))],
        _victims(coords, victims[:d]))
    # Both connections mix updates and hot-pool NWC.  A connection that
    # only re-reads cached answers runs sub-millisecond round trips whose
    # rate swung 23% across seeds on a 2-vCPU VM, and verifying each of
    # its (location, version) pairs took longer than the run itself.
    streams = []
    for c in range(CONNECTIONS):
        first = len(coords) + tail_n + c * length
        inserts = [(first + i, *_xy(p)) for i, p in
                   enumerate(_uniform(_rng(seed, _UPDATES, c), length))]
        pick = [hot[i] for i in _rng(seed, _LOCATIONS, c).integers(
            len(hot), size=length)]
        streams.append(_mixed_stream(
            _kinds(_rng(seed, _KINDS, c),
                   {"nwc": 0.60, "insert": 0.25, "delete": 0.15}, length),
            pick, inserts, _victims(coords, victims[d + c::CONNECTIONS])))
    subs = [_xy(p) for p in _spread_uniform(_rng(seed, _SUBS), s["subs"])]
    warmup = [("nwc", None, *_xy(p)) for p in hot]
    return Workload(name, coords, streams, warmup,
                    subs=subs, wal_tail=tail)
