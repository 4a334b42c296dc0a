"""Self-check of the benchmark itself, in about a minute.

    python3 perfbench/selfcheck.py

Run from the repository root.  It checks that

* ``BENCHMARK.json`` is exactly what ``spec.py`` describes;
* every workload, at ``--size tiny``, prints every end-to-end metric
  (``--trace 0``) and every per-layer metric (``--trace 1``) with its
  unit, verifies with zero mismatches and leaves no process or scratch
  file behind;
* a planted wrong answer makes verification fail (non-zero exit,
  ``"correct": false``), so the check is shown to be able to fail;
* without the program (only ``BENCHMARK.json`` and ``perfbench/``) the
  command exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import servers
import spec

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(cwd: str, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def main() -> int:
    root = os.getcwd()
    doc = spec.load_benchmark_json(root)
    assert doc == spec.benchmark_json(), "BENCHMARK.json drifted from spec.py"
    catalogues = {0: doc["end_to_end"], 1: doc["per_layer"]}
    for workload in spec.WORKLOADS:
        for trace, catalogue in catalogues.items():
            code, lines = _run(root, "--workload", workload, "--seed", "7",
                               "--seconds", "2", "--trace", str(trace),
                               "--size", "tiny")
            assert code == 0, (workload, trace, lines[-3:])
            result = _result(lines)
            assert result["correct"] and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in catalogue}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, got, want)
            for name, value in result["metrics"].items():
                assert isinstance(value["value"], (int, float)), name
            print(f"ok   {workload} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} requests verified")

    code, lines = _run(root, "--workload", "reads", "--seed", "7",
                       "--seconds", "1", "--size", "tiny",
                       "--plant-wrong-answer")
    assert code != 0 and not _result(lines)["correct"], lines[-2:]
    print("ok   a planted wrong answer fails verification")

    bare = os.path.join(root, ".perfbench", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        code, lines = _run(bare, "--workload", "reads", "--seed", "7",
                           "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    assert code != 0 and not lines, (code, lines)
    print("ok   without the program the command fails and prints nothing")

    assert not servers.leaked(os.path.join(root, ".perfbench")), \
        "benchmark server processes outlived their runs"
    print("ok   no server process outlived its run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
