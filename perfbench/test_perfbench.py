"""Self-tests of the benchmark runner.

    python3 -m pytest perfbench

Each runs tiny jobs (one case per round, one set-up) in fresh processes.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
RUNNER = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(RUNNER)


def run(workload, trace, seed=0, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_lines(workload, trace, seed=0):
    done = run(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines = result_lines(workload, trace)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = declared(kind)
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        printed = [("metric", name, unit) for name, unit in expected.items()]
        if trace == 0:
            printed += [("info", name, unit) for name, unit in RUNNER.INFO.items()]
        for prefix, name, unit in printed:
            assert any(line.startswith(f"{prefix} {name} = ") and line.endswith(f" {unit}")
                       for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    seed = 12345678901  # any seed is accepted, not only small ones
    first, second = (json.loads(result_lines(workload, 1, seed)[-1])["metrics"]
                     for _ in range(2))
    counts = {k for k, v in first.items() if v["unit"] in ("count", "B", "ratio")}
    assert {k: first[k]["value"] for k in counts} == \
        {k: second[k]["value"] for k in counts}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = run("strip_march", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
