"""Smoke test of the benchmark itself, on the 64-element test scene.

    python -m pytest benchmarks/test_bench.py -q

Each workload runs one round in a subprocess, untraced and traced.  The
test checks that every metric named in BENCHMARK.json is emitted with its
unit, that no operation failed, and that the counts later changes may cite
repeat exactly for the same seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    "propagation.plane_steps",
    "propagation.fft_count",
    "optimizer.evaluations",
    "beamformer.airy_rhs.calls",
    "beamformer.airy_ula.calls",
    "beamformer.focused_rhs.calls",
)


def smoke(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--smoke", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_complete(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = smoke(workload, trace=0)
    assert_complete(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_and_exact_counts(workload):
    first, second = smoke(workload, trace=1), smoke(workload, trace=1)
    assert_complete(first, SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["propagation.plane_steps"]["value"] > 0


def test_refuses_without_program_sources(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for f in (ROOT / "benchmarks").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
