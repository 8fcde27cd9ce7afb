"""Golden-stats regression tests.

``tests/golden/suite_small.json`` pins the exact statistics of a small,
fast (workload x ISA) suite.  Any change to the compiler, finalizer,
timing model, or harness that moves a single counter fails here first —
and because both the serial and the process-pool paths are checked
against the same golden file, it is also the proof that ``jobs=N``
reproduces the serial statistics bit for bit.

Regenerating after an *intentional* model change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/harness/test_golden.py -q

then commit the updated ``tests/golden/suite_small.json`` and explain the
stat movement in the PR description.
"""

import json
import os
from pathlib import Path

import pytest

from repro.common.config import small_config
from repro.core import Session

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "suite_small.json"

WORKLOADS = ("arraybw", "comd", "bitonic")
SCALE = 0.1
SEED = 7


def _capture(jobs: int) -> dict:
    """The golden payload for the pinned suite, wall-clock excluded."""
    results = Session(small_config(2)).suite(
        scale=SCALE,
        workloads=list(WORKLOADS),
        seed=SEED,
        use_disk_cache=False,   # golden must reflect a real simulation,
                                # never a cache read
        jobs=jobs,
    )
    runs = {}
    for (workload, isa), run in sorted(results.runs.items()):
        payload = run.to_payload()
        del payload["wall_seconds"]   # the one nondeterministic field
        runs[f"{workload}/{isa}"] = payload
    payload = {
        "config_fingerprint": small_config(2).fingerprint(),
        "scale": SCALE,
        "seed": SEED,
        "workloads": list(WORKLOADS),
        "runs": runs,
    }
    # Round-trip through JSON so float formatting and key types match a
    # file read exactly.
    return json.loads(json.dumps(payload, sort_keys=True))


@pytest.fixture(scope="module")
def serial_capture():
    return _capture(jobs=1)


def test_golden_file_up_to_date(serial_capture):
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(serial_capture, indent=2, sort_keys=True) + "\n"
        )
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing - regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    if golden["config_fingerprint"] != serial_capture["config_fingerprint"]:
        pytest.fail(
            "GpuConfig changed shape/defaults since the golden file was "
            "written - rerun with REPRO_UPDATE_GOLDEN=1 if intentional"
        )
    assert serial_capture == golden, (
        "simulation statistics drifted from tests/golden/suite_small.json; "
        "if the model change is intentional, regenerate with "
        "REPRO_UPDATE_GOLDEN=1 and justify the movement in the PR"
    )


def test_parallel_path_matches_golden(serial_capture):
    """jobs=3 must reproduce the pinned stats exactly, not just jobs=1."""
    assert _capture(jobs=3) == serial_capture


def test_golden_runs_all_verified():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden["runs"]) == 2 * len(WORKLOADS)
    for name, run in golden["runs"].items():
        assert run["verified"] is True, name
        assert run["error"] is None, name
        assert run["total"]["counters"]["cycles"] > 0, name
