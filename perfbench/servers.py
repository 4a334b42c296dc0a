"""Booting, measuring and stopping the benchmark's server processes.

Every server runs ``launch.py`` in its own process group, so
stopping a server stops whatever it spawned, and on the CPUs the
load generator leaves free (see ``run.py``).  :class:`Processes` owns
all of them for one benchmark run: :meth:`Processes.stop_all` runs on
every exit path, and :func:`leaked` scans ``/proc`` for any process
still naming the run's scratch directory.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCH = os.path.join(HERE, "launch.py")
HOST = "127.0.0.1"
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


@dataclass
class Server:
    """One booted server: its processes, front port and boot time."""

    procs: list[subprocess.Popen]
    port: int
    setup_s: float
    trace_files: list[str] = field(default_factory=list)


class Processes:
    """Every process one benchmark run started."""

    def __init__(self, root: str, scratch: str, cpus: set[int]) -> None:
        self.scratch = scratch
        self.cpus = ",".join(map(str, sorted(cpus)))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.live: list[subprocess.Popen] = []
        self._logs = 0

    def launch(self, args: list[str]) -> subprocess.Popen:
        """One ``launch.py`` server process on the server CPUs."""
        return self.spawn([LAUNCH, "--cpus", self.cpus, *args])

    def spawn(self, argv: list[str]) -> subprocess.Popen:
        """``python3 ARGV`` in its own process group, output to a log file."""
        self._logs += 1
        log = open(os.path.join(self.scratch, f"proc-{self._logs}.log"),
                   "wb")
        try:
            proc = subprocess.Popen(
                [sys.executable, *argv], env=self.env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                start_new_session=True)
        finally:
            log.close()
        self.live.append(proc)
        return proc

    def stop(self, procs: list[subprocess.Popen]) -> None:
        """SIGTERM (the servers drain and, when traced, write their
        spans), then SIGKILL whatever outlives the timeout."""
        for proc in procs:
            if proc.poll() is None:
                _signal_group(proc, signal.SIGTERM)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for proc in procs:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                _signal_group(proc, signal.SIGKILL)
                proc.wait()
            # Reap anything the server itself spawned into its group.
            _signal_group(proc, signal.SIGKILL)
            if proc in self.live:
                self.live.remove(proc)

    def stop_all(self) -> None:
        self.stop(list(self.live))

    def log_tail(self) -> str:
        """The last lines of every process log (for failures)."""
        out = []
        for i in range(1, self._logs + 1):
            path = os.path.join(self.scratch, f"proc-{i}.log")
            if os.path.exists(path):
                with open(path, encoding="utf-8", errors="replace") as fh:
                    out.append("".join(fh.readlines()[-15:]))
        return "\n".join(out)


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _wait_port(path: str, procs: list[subprocess.Popen],
               deadline: float) -> int:
    while True:
        try:
            with open(path, encoding="utf-8") as fh:
                return int(fh.read())
        except (FileNotFoundError, ValueError):
            pass
        for proc in procs:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {proc.returncode} during boot")
        if time.monotonic() > deadline:
            raise RuntimeError(f"server did not publish {path} in time")
        time.sleep(0.002)


def _wait_healthy(port: int, deadline: float) -> None:
    from repro.serve.client import ServeClient, ServeClientError

    while True:
        try:
            with ServeClient(HOST, port, timeout_s=30.0) as client:
                if client.health().get("status") == "serving":
                    return
        except (OSError, ServeClientError):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"server on port {port} never became healthy")
        time.sleep(0.002)


def boot_single(ps: Processes, tag: str, points: str,
                state_dir: str | None, trace: bool) -> Server:
    """One ``QueryServer``; ``setup_s`` runs from launch to the first
    healthy reply (a bulk-load boot, or a recovery boot with
    ``state_dir``)."""
    port_file = os.path.join(ps.scratch, f"{tag}.port")
    args = ["single", "--points", points, "--port-file", port_file]
    if state_dir is not None:
        args += ["--state-dir", state_dir]
    traces = []
    if trace:
        traces.append(os.path.join(ps.scratch, f"{tag}.front.spans"))
        args += ["--trace-out", traces[0]]
    start = time.monotonic()
    proc = ps.launch(args)
    deadline = start + BOOT_TIMEOUT_S
    port = _wait_port(port_file, [proc], deadline)
    _wait_healthy(port, deadline)
    return Server([proc], port, time.monotonic() - start, traces)


def boot_fleet(ps: Processes, tag: str, shard_dir: str, shards: int,
               trace: bool) -> Server:
    """Shard workers plus a ``repro shard-serve --attach`` coordinator;
    ``setup_s`` runs from the first launch to the coordinator's first
    healthy reply."""
    procs, traces, files = [], [], []
    start = time.monotonic()
    deadline = start + BOOT_TIMEOUT_S
    for index in range(shards):
        port_file = os.path.join(ps.scratch, f"{tag}.w{index}.port")
        files.append(port_file)
        args = ["cli"]
        if trace:
            traces.append(os.path.join(ps.scratch,
                                       f"{tag}.worker{index}.spans"))
            args += ["--trace-out", traces[-1]]
        procs.append(ps.launch(args + [
            "--", "shard-worker", "--dir", shard_dir, "--index", str(index),
            "--host", HOST, "--port", "0", "--port-file", port_file]))
    ports = [_wait_port(f, procs, deadline) for f in files]
    port_file = os.path.join(ps.scratch, f"{tag}.coord.port")
    args = ["cli"]
    if trace:
        traces.insert(0, os.path.join(ps.scratch, f"{tag}.front.spans"))
        args += ["--trace-out", traces[0]]
    procs.insert(0, ps.launch(args + [
        "--", "shard-serve", "--dir", shard_dir, "--host", HOST,
        "--port", "0", "--port-file", port_file,
        "--attach", ",".join(f"{HOST}:{p}" for p in ports)]))
    port = _wait_port(port_file, procs, deadline)
    _wait_healthy(port, deadline)
    return Server(procs, port, time.monotonic() - start, traces)


def peak_rss_mb(server: Server) -> float:
    """Summed peak RSS (``VmHWM``) of the server's processes."""
    total_kb = 0
    for proc in server.procs:
        with open(f"/proc/{proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def leaked(scratch: str) -> list[int]:
    """Pids of live processes whose command line names ``scratch``."""
    marker = scratch.encode()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if marker in fh.read():
                    pids.append(int(entry))
        except OSError:
            continue
    return pids
