"""Self-test of the benchmark: tiny runs of every workload.

Checks that every metric BENCHMARK.json names is printed with its unit,
that no unit fails on this commit, that expecting the opposite verdicts
makes every unit fail (so the checker really compares), and that the
benchmark refuses to run without the sources.

    PYTHONPATH=src python3 -m pytest -q bench/tests
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


def run_bench(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_no_unit_fails(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.startswith(f"{workload} {metric['name']} = ")
                   and line.endswith(f" {metric['unit']}") for line in lines[:-1])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    if trace:
        assert result["metrics"]["failed_share"]["value"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inverted_verdicts_fail_every_unit(workload):
    proc = run_bench(workload, 1, "--invert-verdicts")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False
    assert result["metrics"]["failed_share"]["value"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
