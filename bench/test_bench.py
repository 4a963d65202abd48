"""Tests of the benchmark itself, at smoke size.

Run from the root of a checkout: ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(tmp_path, workload, seed=3, trace=0, cwd=ROOT, check=True):
    out_dir = tmp_path / f"out-{workload}-{seed}-{trace}"
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke", "--out", str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    if not check:
        return proc, None, None
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads((out_dir / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return lines, json.loads(lines[-1]), result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_correct(tmp_path, workload):
    lines, line, result = run_bench(tmp_path, workload)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(line["metrics"]) == {n for n, m in spec.items() if m["in_result_line"]}
    for name, metric in line["metrics"].items():
        assert metric["unit"] == spec[name]["unit"]
        assert metric["value"] > 0
    assert result["metrics"]["fail_ratio"]["value"] == 0
    for name, metric in result["metrics"].items():
        assert metric["unit"] == spec[name]["unit"]
        assert any(l.split()[1:2] == [name] for l in lines[:-1])
    prov = result["provenance"]
    assert prov["workload"] == workload and prov["seed"] == 3 and not prov["traced"]
    assert prov["blas_threads"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(tmp_path, workload):
    _, line, result = run_bench(tmp_path, workload, trace=1)
    assert line["correct"]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert line["metrics"]["trace.overhead"]["value"] > 0
    for layer in SPEC["workloads"][WORKLOADS.index(workload)]["layers"]:
        assert line["metrics"][f"{layer}.errors"]["value"] == 0
    assert result["provenance"]["traced"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_and_outputs(tmp_path, workload):
    runs = [run_bench(tmp_path / str(i), workload, seed=5)[2] for i in range(2)]
    other = run_bench(tmp_path / "other", workload, seed=6)[2]
    ops = [r["phases"]["untraced"]["ops"] for r in runs]
    common = min(len(o) for o in ops)
    assert common >= 1
    for a, b in zip(ops[0][:common], ops[1][:common]):
        assert (a["input"], a["output"]) == (b["input"], b["output"])
    assert ops[0][0]["input"] != other["phases"]["untraced"]["ops"][0]["input"]


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    assert [w["why"] for w in bench["workloads"]] == [w["why"] for w in SPEC["workloads"]]
    e2e = [{k: m[k] for k in ("name", "unit", "better", "bound")}
           for m in SPEC["end_to_end"] if m["in_result_line"]]
    assert bench["end_to_end"] == e2e
    assert bench["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                  for m in SPEC["per_layer"]]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, _, _ = run_bench(tmp_path, WORKLOADS[0], cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
