"""Server-side launcher: one benchmark server process.

    python3 perfbench/launch.py [--cpus C] single --points P.npy
        --port-file F [--state-dir D] [--trace-out T]
    python3 perfbench/launch.py [--cpus C] cli [--trace-out T] -- ARGV

``single`` serves one :class:`repro.serve.QueryServer` over the points
the benchmark generated (``repro serve --dataset`` cannot take them: its
generators ignore any seed).  With ``--state-dir`` the engine comes from
:func:`repro.serve.recover`, so the boot replays the WAL tail there.

``cli`` runs ``repro <ARGV>`` in this process (``shard-worker`` and
``shard-serve --attach`` for the fleet).

With ``--trace-out`` the layer wrappers of ``tracing.py`` are installed
before the server starts, and the recorded spans are written to that
file when the server has drained (SIGTERM).  Without it, ``tracing`` is
never imported.  The process needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys


def _write_port_file(path: str, port: int) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(f"{port}\n")
    os.replace(tmp, path)


def serve_single(points_path: str, port_file: str,
                 state_dir: str | None) -> None:
    import numpy as np

    from repro.obs import MetricsRegistry
    from repro.serve import (DurabilityConfig, QueryServer, ServeConfig,
                             recover)

    import verify

    def make_engine(tree=None):
        if tree is None:
            return verify.make_engine(np.load(points_path).tolist())
        return verify.engine_over(tree)

    metrics = MetricsRegistry()
    durable = None
    if state_dir is not None:
        engine, durable = recover(
            DurabilityConfig(state_dir=state_dir, fsync="interval"),
            make_engine, metrics=metrics)
    else:
        engine = make_engine()
    server = QueryServer(engine, ServeConfig(port=0), metrics=metrics,
                         durable=durable)

    async def run() -> None:
        await server.start()
        _write_port_file(port_file, server.port)
        await server.serve_forever()

    asyncio.run(run())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["single", "cli"])
    parser.add_argument("--points")
    parser.add_argument("--port-file")
    parser.add_argument("--state-dir")
    parser.add_argument("--trace-out")
    parser.add_argument("--cpus", help="comma-separated CPUs to run on")
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.install()
    try:
        if args.mode == "single":
            serve_single(args.points, args.port_file, args.state_dir)
            return 0
        from repro.cli import main as repro_main

        return repro_main(args.argv)
    finally:
        if recorder is not None:
            recorder.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
