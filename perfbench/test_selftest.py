"""Self-test of the benchmark at minimal run length (one op cycle per workload).

    python3 -m pytest -q perfbench/test_selftest.py

Runs every workload untraced and traced and asserts that every metric of
BENCHMARK.json, and every reported ungated figure, is printed with its unit,
that every op passed its check (ok_ratio = 1), and that layer self times add
up to the traced op time.
Takes about two and a half minutes on a 2-core machine, most of it master-curve set-up.
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

# Printed with their units on every workload but not gated (see run.end_to_end).
UNGATED = {"op_wall_s_p50": "s", "op_s_tail": "s", "ops_per_s": "1/s"}
ACCURACY = {"closed_loop": ("phasor_err_mv", "mV"), "phase_tracking": ("line_freq_err_hz", "Hz")}


def _run(tmp_path, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0.01", "--trace", str(trace), "--results", str(tmp_path / "runs.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics(tmp_path, workload):
    result, table = _run(tmp_path, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = dict(declared, **UNGATED)
    if workload in ACCURACY:
        printed.update([ACCURACY[workload]])
    lines = table.splitlines()
    for name, unit in printed.items():
        line = next(line for line in lines if line.startswith(f"  {name} "))
        assert f" {unit} " in line, line


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_per_layer_metrics(tmp_path, workload):
    result, _ = _run(tmp_path, workload, 1)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert result["correct"]
    layer_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    layer_sum += metrics["bench.remainder_s"]["value"]
    assert layer_sum == pytest.approx(metrics["trace.op_s_mean"]["value"], rel=1e-9)


def test_compare_verdicts():
    sys.path.insert(0, HERE)
    from run import verdict

    parent = [1.0 + 0.01 * (i % 3) for i in range(10)]
    assert verdict(parent, [0.5 * x for x in parent], "lower", 0.1) == "improved"
    assert verdict(parent[:3], [0.5 * x for x in parent[:3]], "lower", 0.1) == "no worse"  # too few runs
    assert verdict(parent, [1.5 * x for x in parent], "lower", 0.1) == "worse"
    assert verdict(parent, parent[::-1], "lower", 0.1) == "no worse"
    assert verdict([1.0, 2.0, 0.5, 1.5], [1.0, 2.0, 0.5, 1.5], "higher", 0.1) == "unresolved"
