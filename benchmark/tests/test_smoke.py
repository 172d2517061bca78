"""The benchmark command end to end, on smoke-sized inputs."""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["train", "navigate", "explore"])
def test_workload_prints_the_declared_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "2", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_all_workloads_in_one_command():
    proc = _run("--workload", "all", "--seed", "1", "--seconds", "0",
                "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in ("train", "navigate", "explore"):
        for metric in ("setup_s", "steps_per_s", "cpu_s", "peak_rss_mb"):
            assert any(line.split()[:2] == [workload, metric]
                       for line in proc.stdout.splitlines())
    assert "episodes_per_s" in proc.stdout and "cells_covered" in proc.stdout


def test_same_seed_same_outputs():
    outs = []
    for _ in range(2):
        proc = _run("--workload", "explore", "--seed", "4", "--seconds", "0",
                    "--smoke")
        outs.append(next(line for line in proc.stdout.splitlines()
                         if line.startswith("outputs ")))
    first, second = (json.loads(o[len("outputs "):]) for o in outs)
    assert first["cells"] == second["cells"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                           "explore", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
