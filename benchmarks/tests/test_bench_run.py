"""The command line meets BENCHMARK.json: names, units and failure exit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_names_every_declared_metric(trace, key):
    out = _run(ROOT, "--workload", "saddle-grid", "--seed", "3", "--seconds", "0.1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run(tmp_path, "--workload", "mlp-nag", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout
