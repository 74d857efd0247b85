"""Byte-identity of the 13 bundled artifacts against tests/golden.json.

The artifacts are fig5 `pattern --svg`, fig6 `squint --svg`, and
paper_scenario's link-budget, solve-aperture and power in CSV and in JSON.
golden.json holds the sha256 of each one, digests of up to BLOCKS runs of its
lines (one line per run for an artifact of at most BLOCKS lines) to locate
the first difference, and the numpy version and machine it was made on:
the field kernel's matrix product goes through BLAS, so its last bits depend
on both.

Rewrite the record after an intended change of output with

    PYTHONPATH=src python tests/test_golden.py --update

It compares the new record with the one it replaces and prints one line per
artifact that moved: its old -> new line count and how many of its line
blocks changed. List those artifacts, and why they moved, in CHANGES.md.

The record holds at numpy's baseline dispatch and under OpenBLAS's Haswell
kernels too: two more tests regenerate the artifacts in a subprocess, one
with every SIMD target numpy found on the host disabled through
NPY_DISABLE_CPU_FEATURES, one with OPENBLAS_CORETYPE=Haswell.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import thz_ris_planner
from thz_ris_planner.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
DATA = resources.files("thz_ris_planner").joinpath("data")
RUNS = [
    ("fig5.cfg", ["--svg", "pattern"]),
    ("fig6.cfg", ["--svg", "squint"]),
    *(
        ("paper_scenario.cfg", ["--format", fmt, command])
        for fmt in ("csv", "json")
        for command in ("link-budget", "solve-aperture", "power")
    ),
]
BLOCKS = 64


def _environment() -> dict[str, str]:
    return {"numpy": np.__version__, "machine": platform.machine()}


def _generate(out: Path) -> dict[str, bytes]:
    """Run every bundled command into out; artifact name -> bytes."""
    for config, args in RUNS:
        code = main(["--config", str(DATA.joinpath(config)), "--out", str(out), *args])
        assert code == 0, f"{config} {' '.join(args)} exited {code}"
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _block_digests(lines: list[bytes], size: int) -> list[str]:
    return [
        hashlib.sha256(b"".join(lines[i : i + size])).hexdigest()[:8]
        for i in range(0, len(lines), size)
    ]


def _record(data: bytes) -> dict:
    lines = data.splitlines(keepends=True)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "lines": len(lines),
        "blocks": " ".join(_block_digests(lines, max(1, -(-len(lines) // BLOCKS)))),
    }


def _blocks_against(lines: list[bytes], golden: dict) -> tuple[int, list[str], list[str]]:
    """(block size, digests of lines, golden digests), both cut at the golden record's block size."""
    size = max(1, -(-golden["lines"] // BLOCKS))
    return size, _block_digests(lines, size), golden["blocks"].split()


def _first_difference(name: str, data: bytes, golden: dict) -> str:
    """Where data first departs from the golden record, as one line."""
    lines = data.splitlines(keepends=True)
    size, now, then = _blocks_against(lines, golden)
    block = next((i for i, (a, b) in enumerate(zip(now, then)) if a != b), None)
    if block is None:
        start = end = min(len(lines), golden["lines"]) + 1
    else:
        start, end = block * size + 1, min(block * size + size, golden["lines"])
    if end > start:
        where = f"lines {start}-{end}"
    else:
        now = lines[start - 1][:120] if start <= len(lines) else b"<end of file>"
        where = f"line {start}, now {now!r}"
    return f"{name}: first difference in {where} ({len(lines)} lines, was {golden['lines']})"


def test_bundled_artifacts_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    artifacts = _generate(tmp_path)
    assert sorted(artifacts) == sorted(golden["artifacts"])
    problems = [
        _first_difference(name, data, golden["artifacts"][name])
        for name, data in artifacts.items()
        if hashlib.sha256(data).hexdigest() != golden["artifacts"][name]["sha256"]
    ]
    if problems and golden["environment"] != _environment():
        problems.append(f"golden.json was made with {golden['environment']}, this run has {_environment()}")
    assert not problems, "\n".join(problems)


def _match_golden_in_subprocess(out: Path, **settings: str) -> None:
    """The test above in a fresh interpreter with settings added to its environment."""
    paths = [str(Path(thz_ris_planner.__file__).parents[1]), str(Path(__file__).parent)]
    env = {**os.environ, **settings, "PYTHONPATH": os.pathsep.join(paths)}
    script = "import pathlib, sys, test_golden as g; g.test_bundled_artifacts_match_golden(pathlib.Path(sys.argv[1]))"
    run = subprocess.run([sys.executable, "-c", script, str(out)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, f"{settings}\n{run.stderr[-2000:]}"


def test_bundled_artifacts_match_golden_at_baseline_dispatch(tmp_path):
    # the targets this process runs with, plus any it was started with disabled;
    # with none found on the host this is the test above, run in a subprocess
    found = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    disabled = " ".join([*os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split(), *found])
    _match_golden_in_subprocess(tmp_path, NPY_DISABLE_CPU_FEATURES=disabled)


@pytest.mark.skipif(not __cpu_features__.get("AVX2"), reason="OpenBLAS's Haswell kernels need AVX2")
def test_bundled_artifacts_match_golden_under_the_haswell_blas_kernels(tmp_path):
    # a DYNAMIC_ARCH OpenBLAS, as numpy's wheels ship, runs the kernels of the core type named here;
    # the record held byte for byte under seven core types when measured, and this keeps one checked
    _match_golden_in_subprocess(tmp_path, OPENBLAS_CORETYPE="Haswell")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    before = json.loads(GOLDEN.read_text())["artifacts"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        artifacts = _generate(Path(tmp))
    record = {"environment": _environment(), "artifacts": {n: _record(d) for n, d in artifacts.items()}}
    for name in sorted(before.keys() - artifacts.keys()):
        print(f"{name}: removed")
    for name, data in artifacts.items():
        if name not in before:
            print(f"{name}: new, {record['artifacts'][name]['lines']} lines")
        elif record["artifacts"][name]["sha256"] != before[name]["sha256"]:
            _, now, then = _blocks_against(data.splitlines(keepends=True), before[name])
            changed = sum(a != b for a, b in zip(now, then)) + abs(len(now) - len(then))
            print(f"{name}: {before[name]['lines']} -> {record['artifacts'][name]['lines']} lines, "
                  f"{changed} of {len(then)} blocks changed")
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {GOLDEN}: {len(artifacts)} artifacts")
