"""Smoke test of the benchmark itself, on the tiny corpora.

    python -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit by
both kinds of run, that a deliberately wrong expected answer is caught and
counted as failed, that counts repeat exactly for one seed, and that the
benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny(workload, trace, *extra, seed=3):
    proc = bench(
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), "--tiny", *extra,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in lines
        ), name
    if not trace:
        assert any(line.startswith("failed_frac: 0 ratio") for line in lines)
        assert any(line.startswith("tail: item_ms.tail is p") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_answer_lands_in_failed_frac(workload):
    lines, result = tiny(workload, 0, "--inject-wrong-expectation")
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    assert any(line.startswith("FAIL cycle 0 item 0 ") for line in lines)
    frac = next(line for line in lines if line.startswith("failed_frac: "))
    assert not frac.startswith("failed_frac: 0 ")


def test_counts_repeat_for_one_seed():
    def counts():
        _, result = tiny("sibling-oracle", 1, seed=11)
        return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}

    first = counts()
    assert first["unitary_fit.descents.count"] > 0
    assert counts() == first


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
