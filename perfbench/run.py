"""The repository benchmark: served NWC/kNWC over real server processes.

    python3 perfbench/run.py --workload reads|updates|fleet --seed N
        --seconds S --trace 0|1

Run from the repository root (the program is imported from ``src``).
One run generates the workload's inputs from ``--seed`` (``inputs.py``),
boots the program as separate server processes (``launch.py``: a
``QueryServer`` over the generated points, or a ``repro shard-serve``
fleet over ``partition_dataset`` output), drives it from this process
with two closed-loop connections for ``--seconds``, then stops the
servers and checks every answer against a twin engine (``verify.py``).

``--trace 0`` reports the end-to-end metrics; set-up is booted three
times and its median reported.  ``--trace 1`` runs the same window
twice, untraced and then on servers whose layer boundaries are wrapped
(``tracing.py``), and reports the per-layer metrics (``layers.py``)
plus the tracing overhead.  The last stdout line is the JSON result;
the line before it is a human-readable summary naming the seed.  The
exit code is 0 only when every answer verified.

``--size tiny`` shrinks every input for the self-check
(``selfcheck.py``), and ``--plant-wrong-answer`` corrupts one recorded
answer before verification to show that verification can fail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

import inputs
import layers
import servers
import spec
import verify

SETUP_BOOTS = 3
SHARDS = 2


@dataclass
class Pass:
    """One timed window against one booted server."""

    records: list[dict]              # warm-up and window, for verification
    window: list[dict]
    start: float
    end: float
    setup_s: float
    rss_mb: float
    health: dict = field(default_factory=dict)
    front: layers.Delta | None = None
    fleet: layers.Delta | None = None
    spans: list[dict] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def latencies(self, *ops: str) -> list[float]:
        return sorted((r["t1"] - r["t0"]) * 1e3 for r in self.window
                      if r["op"] in ops and "resp" in r)

    def throughput(self) -> float:
        return sum(1 for r in self.window if "resp" in r) / self.seconds


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def _payload(op, oid, x, y) -> dict:
    if op in verify.UPDATE_OPS:
        return {"op": op, "oid": oid, "x": x, "y": y}
    payload = {"op": op, "x": x, "y": y, "length": inputs.WINDOW,
               "width": inputs.WINDOW, "n": inputs.N_OBJECTS}
    if op == "knwc":
        payload |= {"k": inputs.K, "m": inputs.M}
    return payload


def _drive(client, ops, conn: int, stop_at: float | None,
           out: list[dict]) -> None:
    """Closed loop: send the next op once the previous one answered."""
    from repro.serve.client import ConnectionLostError, ServeClientError

    clock = time.monotonic
    for op, oid, x, y in ops:
        if stop_at is not None and clock() >= stop_at:
            return
        record = {"op": op, "oid": oid, "x": x, "y": y, "conn": conn}
        record["t0"] = clock()
        try:
            record["resp"] = client.call(_payload(op, oid, x, y))
        except ServeClientError as exc:
            record["error"] = exc.code or type(exc).__name__
        record["t1"] = clock()
        out.append(record)
        if record.get("error") == ConnectionLostError.__name__:
            return


def _scrape(client, fleet: bool) -> tuple[dict, dict | None]:
    front = layers.flatten(client.metrics()["metrics"])
    if not fleet:
        return front, None
    return front, layers.flatten(client.metrics(scope="fleet")["metrics"])


def measure(ps: servers.Processes, server: servers.Server,
            w: inputs.Workload, seconds: float, traced: bool) -> Pass:
    """Warm up, scrape, run the timed window, scrape, stop the server."""
    from repro.serve.client import ServeClient

    fleet = w.name == "fleet"
    clients = [ServeClient(servers.HOST, server.port, timeout_s=60.0)
               for _ in range(inputs.CONNECTIONS)]
    try:
        warm: list[dict] = []
        _drive(clients[0], w.warmup, -1, None, warm)
        before = _scrape(clients[0], fleet) if traced else None
        outs: list[list[dict]] = [[] for _ in clients]
        start = time.monotonic()
        stop_at = start + seconds
        threads = [threading.Thread(target=_drive,
                                    args=(c, w.streams[i], i, stop_at,
                                          outs[i]))
                   for i, c in enumerate(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = [r for out in outs for r in out]
        end = max(r["t1"] for r in window)
        result = Pass(warm + window, window, start, end, server.setup_s,
                      servers.peak_rss_mb(server))
        if traced:
            after = _scrape(clients[0], fleet)
            result.health = clients[0].health()
            result.front = layers.Delta(before[0], after[0])
            if fleet:
                result.fleet = layers.Delta(before[1], after[1])
    finally:
        for c in clients:
            c.close()
    ps.stop(server.procs)
    for i, path in enumerate(server.trace_files):
        result.spans += layers.load_spans(path, "front" if i == 0
                                          else "worker")
    return result


def prepare(w: inputs.Workload, ps: servers.Processes, scratch: str):
    """Write the inputs the servers read; return ``boot(tag, trace)``."""
    import numpy as np

    points = os.path.join(scratch, "points.npy")
    np.save(points, w.coords)
    if w.name == "reads":
        return lambda tag, trace: servers.boot_single(ps, tag, points, None,
                                                      trace)
    if w.name == "fleet":
        from repro.geometry import PointObject, Rect
        from repro.shard import partition_dataset

        shard_dir = os.path.join(scratch, "shards")
        partition_dataset(
            [PointObject(i, float(x), float(y))
             for i, (x, y) in enumerate(w.coords.tolist())],
            SHARDS, inputs.WINDOW, shard_dir, extent=Rect(*inputs.EXTENT))
        return lambda tag, trace: servers.boot_fleet(ps, tag, shard_dir,
                                                     SHARDS, trace)
    pristine = os.path.join(scratch, "state")
    _prepare_state(ps, points, pristine, w)

    def boot(tag, trace):
        state = os.path.join(scratch, f"state-{tag}")
        shutil.copytree(pristine, state)
        return servers.boot_single(ps, tag, points, state, trace)

    return boot


def _prepare_state(ps: servers.Processes, points: str, state: str,
                   w: inputs.Workload) -> None:
    """A durable state directory holding a checkpoint with the standing
    queries and a WAL tail after it, built through the server itself:
    subscribe (then detach), checkpoint, apply the tail."""
    from repro.serve.client import ServeClient

    server = servers.boot_single(ps, "prepare", points, state, False)
    try:
        with ServeClient(servers.HOST, server.port, timeout_s=120.0) as sub:
            for x, y in w.subs:
                sub.subscribe(x, y, inputs.WINDOW, inputs.WINDOW,
                              inputs.N_OBJECTS)
        with ServeClient(servers.HOST, server.port, timeout_s=120.0) as c:
            c.checkpoint()
            for op, oid, x, y in w.wal_tail:
                ack = c.call(_payload(op, oid, x, y))
                if op == "delete" and not ack["deleted"]:
                    raise RuntimeError(f"WAL-tail delete of {oid} missed")
    finally:
        ps.stop(server.procs)


def _model_ratio(engine, points: int, measured: float) -> float:
    """Measured NWC node accesses over the paper's §4 prediction for
    this density, window and n."""
    from repro.analysis import NWCCostModel, TreeProfile

    x1, y1, x2, y2 = inputs.EXTENT
    model = NWCCostModel(points / ((x2 - x1) * (y2 - y1)), inputs.WINDOW,
                         inputs.WINDOW, inputs.N_OBJECTS,
                         max_level=max(4, int((x2 - x1) / 2
                                              / inputs.WINDOW) + 1))
    profile = TreeProfile.from_tree(engine.tree)
    return measured / model.expected_io(profile.window_cost,
                                        profile.knn_cost)


def _node_accesses(p: Pass) -> float:
    io = [r["resp"]["stats"]["node_accesses"] for r in p.window
          if r["op"] == "nwc" and "resp" in r and not r["resp"]["cached"]]
    return statistics.fmean(io) if io else 0.0


def _client_metrics(p: Pass) -> dict[str, float | None]:
    """Every client-observed figure of the summary line; ``None`` where the
    workload does not send the op."""
    nwc, knwc = p.latencies("nwc"), p.latencies("knwc")
    upd = p.latencies(*verify.UPDATE_OPS)
    attempted = len(p.window)
    return {
        "throughput_rps": p.throughput(),
        "nwc_p50_ms": percentile(nwc, 0.50) if nwc else None,
        "nwc_p95_ms": percentile(nwc, 0.95) if nwc else None,
        "knwc_p50_ms": percentile(knwc, 0.50) if knwc else None,
        "knwc_p90_ms": percentile(knwc, 0.90) if knwc else None,
        "update_p50_ms": percentile(upd, 0.50) if upd else None,
        "update_p95_ms": percentile(upd, 0.95) if upd else None,
        "failed_ratio": sum(1 for r in p.window if "error" in r) / attempted,
        "nwc_node_accesses": _node_accesses(p),
        "samples": f"nwc={len(nwc)} knwc={len(knwc)} update={len(upd)}",
    }


def run(args, ps: servers.Processes, scratch: str,
        all_cpus: set[int]) -> tuple[dict, str]:
    phases: dict[str, float] = {}
    mark = time.monotonic()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.monotonic()
        phases[name] = phases.get(name, 0.0) + now - mark
        mark = now

    w = inputs.make(args.workload, args.seed, args.size)
    boot = prepare(w, ps, scratch)
    phase("prepare")
    setups: list[float] = []
    if not args.trace:
        for i in range(SETUP_BOOTS - 1):
            server = boot(f"setup{i}", False)
            setups.append(server.setup_s)
            ps.stop(server.procs)
    # Traced runs measure both passes; which goes first alternates with
    # the seed, so the overhead figure carries no systematic order bias.
    order = [False, True] if args.trace else [False]
    if args.seed % 2:
        order.reverse()
    passes: dict[bool, Pass] = {}
    for traced in order:
        server = boot("traced" if traced else "plain", traced)
        if not traced:
            setups.append(server.setup_s)
        phase("boot")
        passes[traced] = measure(ps, server, w, args.seconds, traced)
        phase("measure")
    plain = passes[False]

    if args.plant_wrong_answer:
        victim = next(r for r in plain.window
                      if r["op"] == "nwc" and "resp" in r)
        victim["resp"]["result"] = {"planted": True}
    # Verification runs after every server stopped: give it every CPU.
    os.sched_setaffinity(0, all_cpus)
    checked, problems, model_ratio = 0, [], 0.0
    for traced, p in passes.items():
        n, bad = verify.verify(w.coords, w.wal_tail, p.records, ps,
                               "traced" if traced else "plain")
        checked += n
        problems += bad
        if p.front is not None:
            model_ratio = _model_ratio(verify.Twin(w.coords.tolist()).engine,
                                       len(w.coords), _node_accesses(p))
    phase("verify")
    print("# phases: " + ", ".join(f"{k} {v:.1f} s"
                                   for k, v in phases.items()),
          file=sys.stderr)
    for line in problems[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)

    client = _client_metrics(plain)
    client["setup_s"] = statistics.median(setups)
    client["server_rss_mb"] = plain.rss_mb
    if args.trace:
        traced = passes[True]
        values = layers.compute(
            spans=traced.spans, window=(traced.start, traced.end),
            records=traced.window, front=traced.front, fleet=traced.fleet,
            shards=SHARDS, health=traced.health, model_ratio=model_ratio)
        values["bench.trace_overhead_pct"] = 100.0 * (
            1.0 - traced.throughput() / plain.throughput())
        for name in spec.CLIENT:
            values[name] = client[name.split(".", 1)[1]] or 0.0
        catalogue = spec.PER_LAYER
    else:
        values = client
        catalogue = spec.END_TO_END
    metrics = {name: {"value": values[name], "unit": entry[0]}
               for name, entry in catalogue.items()}
    window = plain.window
    result = {"correct": not problems, "attempted": len(window),
              "failed": sum(1 for r in window if "error" in r),
              "metrics": metrics}
    return result, _summary(args, client, checked, len(problems))


def _summary(args, client: dict, checked: int, mismatches: int) -> str:
    """One human-readable line naming the seed and every client figure,
    ``absent`` where the workload does not send the op."""
    units = {name: unit for name, (unit, *_) in spec.END_TO_END.items()}
    units |= {name.split(".", 1)[1]: unit
              for name, (unit, *_) in spec.CLIENT.items()}
    units["failed_ratio"] = "ratio"
    shown = " ".join(
        f"{name}=absent" if client[name] is None
        else f"{name}={client[name]:.4g} {unit}"
        for name, unit in units.items())
    return (f"# {args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} {shown} ({client['samples']}) "
            f"verified={checked} mismatches={mismatches}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="served NWC/kNWC benchmark (see module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=list(inputs.SIZES),
                        default="full")
    parser.add_argument("--plant-wrong-answer", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the repository "
              "root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    base = os.path.join(root, ".perfbench")
    scratch = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(scratch)
    # This process keeps one CPU and the servers get the rest: the client
    # threads then never migrate onto the server's core, which is what
    # keeps a GIL-bound server's figures steady from run to run.
    cpus = sorted(os.sched_getaffinity(0))
    client_cpus, server_cpus = ({cpus[0]}, set(cpus[1:])) if len(cpus) > 1 \
        else (set(cpus), set(cpus))
    ps = servers.Processes(root, scratch, server_cpus)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        os.sched_setaffinity(0, client_cpus)
        result, summary = run(args, ps, scratch, set(cpus))
    except BaseException:
        print(ps.log_tail(), file=sys.stderr)
        raise
    finally:
        ps.stop_all()
        leftovers = servers.leaked(scratch)
        for pid in leftovers:
            os.kill(pid, signal.SIGKILL)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    if leftovers:
        print(f"perfbench: server processes {leftovers} outlived the run",
              file=sys.stderr)
        result["correct"] = False
    print(summary)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
