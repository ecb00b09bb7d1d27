"""Tests of the benchmark itself, on its smoke mode (tiny sizes, fixed units).

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# flat-white is runnable but not in BENCHMARK.json (see bench/run.py)
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["flat-white"]
SEED = 3


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload: str, trace: int) -> tuple[dict, str, list]:
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    spans = []
    if trace:
        path = ROOT / ".bench_out" / f"trace-{workload}-{SEED}.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [[r["name"], r["start"], r["end"], r["parent"], r["series"], r["info"]] for r in rows]
    return json.loads(lines[-1]), done.stdout, spans


@pytest.fixture(scope="module")
def runs():
    return {(w, t): smoke(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(runs, workload, trace):
    result, stdout, _ = runs[workload, trace]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float)
        assert f"# {m['name']} = {value['value']!r} {m['unit']}" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_tree_is_well_formed(runs, workload):
    _, _, spans = runs[workload, 1]
    assert spans
    assert tracing.check_tree(spans) == []
    assert all(s[tracing.SERIES] is not None for s in spans)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "share")]
    counts.remove("trace.overhead_share")
    first = runs[workload, 1][0]["metrics"]
    again = smoke(workload, 1)[0]["metrics"]
    assert {c: first[c]["value"] for c in counts} == {c: again[c]["value"] for c in counts}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
