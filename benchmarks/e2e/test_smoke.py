"""Smoke test of the benchmark's plumbing (not part of tier-1).

``python -m pytest benchmarks/e2e -q`` runs ``run.py --smoke`` (toy
sizes, one repetition, no traced pass) and one ``--smoke --trace 1`` run
per workload, and checks what they print against BENCHMARK.json.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "7", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = (WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_run_reports_every_end_to_end_metric(tmp_path):
    out = tmp_path / "smoke.json"
    _run("--smoke", "--out", str(out))
    results = json.loads(out.read_text())
    assert results["provenance"]["seed"] == 7
    for workload in WORKLOADS:
        block = results["workloads"][workload]
        assert block["attempted"] >= 1 and block["failed"] == 0, block
        for metric in SPEC["end_to_end"]:
            assert block["end_to_end"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_driver_line_has_every_metric_with_its_unit(workload, trace):
    line = _run("--smoke", "--workload", workload, "--seconds", "1",
                "--trace", str(trace)).strip().splitlines()[-1]
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
