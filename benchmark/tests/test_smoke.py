"""Smoke test of the benchmark harness: every workload at toy size.

Checks the output contract, not speed:

    python3 -m pytest benchmark/tests -q

The repository's own suite (``pytest`` with its configured testpaths)
does not collect this file.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.1", "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_declared_metrics(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())

    record = json.loads((ROOT / ".bench_runs" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert {"cpu", "nproc", "python", "numpy", "scipy", "threads", "git_commit",
            "seed"} <= set(record["environment"])
    if trace:
        spans = json.loads((ROOT / ".bench_runs" / f"{workload}-seed3-trace1-spans.json")
                           .read_text())
        assert spans and {"id", "name", "start", "end", "parent"} == set(spans[0])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
