#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

Asserts that each run exits 0, that its last stdout line carries exactly
the end-to-end (--trace 0) or per-layer (--trace 1) metrics that
BENCHMARK.json names, each with its unit, and that no job failed. It also
asserts that a copy holding only BENCHMARK.json and perfbench/, without the
library sources, exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180


def bench(cwd, workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload, trace):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], result
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metrics differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        if not trace:
            assert m["value"] > 0, (name, m)
    print(f"ok  {workload:13s} trace={trace} attempted={result['attempted']} "
          f"failed_frac={result['failed'] / result['attempted']}")


def check_bare_copy():
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        out = bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    print("ok  a copy without the library sources exits", out.returncode, "with no result")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace)
    check_bare_copy()


if __name__ == "__main__":
    main()
