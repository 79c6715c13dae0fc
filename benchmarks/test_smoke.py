"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest benchmarks/test_smoke.py

Runs every workload of workloads.TINY untraced and traced, checks that
each metric prints with its unit, that counts repeat exactly, that a
corrupted output is counted as failed, and that the benchmark refuses to
run without the program.
"""

import json
import math
import os
import shutil
import struct
import subprocess
import sys

import pytest

import run
import tracer
import workloads

LAYER_UNITS = {name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()}


def _run(capsys, name, trace=0):
    code = run.main(["--workload", name, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace)], workloads=workloads.TINY)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(capsys, name, trace):
    lines, result = _run(capsys, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = LAYER_UNITS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        value = result["metrics"][metric]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert f"{metric} {value!r} {unit}" in lines
    assert any(line.startswith("failed_frac 0.0 frac") for line in lines)
    assert any(line.startswith("env {") for line in lines)


def test_counts_repeat_exactly(capsys):
    _, first = _run(capsys, "train_full", trace=1)
    _, second = _run(capsys, "train_full", trace=1)
    for metric, unit in LAYER_UNITS.items():
        if unit == "count":
            assert first["metrics"][metric] == second["metrics"][metric], metric


def _nan_loss(out):
    path = os.path.join(out, "log.jsonl")
    with open(path) as fh:
        lines = fh.read().splitlines()
    rec = json.loads(lines[0])
    rec["L_S"] = float("nan")
    lines[0] = json.dumps(rec)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _bad_mask_value(out):
    path = os.path.join(out, "masks", sorted(os.listdir(os.path.join(out, "masks")))[0])
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-2:] = struct.pack("<H", 7)  # last pixel: class 7 of K=2
    with open(path, "wb") as fh:
        fh.write(data)


@pytest.mark.parametrize("name, corrupt", [("train_full", _nan_loss),
                                           ("label_textured", _bad_mask_value)])
def test_corrupted_output_is_counted_in_failed_frac(capsys, monkeypatch, name, corrupt):
    check = workloads.Case.check

    def corrupted_check(self, out, codes, reference=None):
        if os.path.basename(out) == "it0":
            corrupt(out)
        return check(self, out, codes, reference)

    monkeypatch.setattr(workloads.Case, "check", corrupted_check)
    lines, result = _run(capsys, name)
    assert not result["correct"]
    assert result["failed"] == 1
    assert f"failed_frac {1 / result['attempted']!r} frac" in " ".join(lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "benchmarks")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "train_bl",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
