"""Smoke test of the ledger benchmark (opt-in; not part of tier 1).

Runs every workload at tiny size, traced and untraced, and checks the
result line's schema and units against ``BENCHMARK.json``; a corrupted
output must be rejected, and a directory without the program's sources must
fail without a result line::

    python3 -m pytest ledger/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent
WORKLOADS = ("gateway_warm", "gateway_cold", "monitor_replay", "corpus_store")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, *extra, cwd=ROOT, trace=0):
    command = [
        sys.executable, "ledger/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(completed):
    lines = completed.stdout.strip().splitlines()
    assert lines, completed.stderr
    return json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema_and_units(workload, trace):
    completed = _run(workload, trace=trace)
    assert completed.returncode == 0, completed.stderr
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float), name
        if not trace:
            assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_rejected(workload):
    completed = _run(workload, "--corrupt-one")
    assert completed.returncode == 1, completed.stderr
    result = _result(completed)
    assert result["correct"] is False and result["failed"] >= 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("corpus_store", cwd=tmp_path)
    assert completed.returncode not in (0, 1)
    assert '"correct"' not in completed.stdout
