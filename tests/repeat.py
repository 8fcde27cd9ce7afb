"""Rerun test directories N times and list the failures by test id.

    PYTHONPATH=src python tests/repeat.py -n 20 tests/dist tests/serve tests/obs

Each repeat is a fresh ``python -m pytest`` process over the given
paths; the failed and errored test ids come from its short summary.
The tally at the end names every id that failed at least once and in
how many repeats; the exit status is 1 when any did.  Standard library
only, and pytest does not collect this file (it is not ``test_*.py``).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from collections import Counter
from typing import List, Sequence

#: seconds one repeat may take before it counts as a hang.
REPEAT_TIMEOUT = 1800.0


def failed_ids(output: str) -> List[str]:
    """The ``FAILED``/``ERROR`` ids of a pytest short summary."""
    ids = []
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR") and rest:
            ids.append(rest.split(" - ", 1)[0].strip())
    return ids


def run_once(paths: Sequence[str]) -> List[str]:
    command = [sys.executable, "-m", "pytest", "-q", "-rfE",
               "-p", "no:cacheprovider", *paths]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=REPEAT_TIMEOUT)
    except subprocess.TimeoutExpired:
        return [f"(repeat timed out after {REPEAT_TIMEOUT:g} s)"]
    ids = failed_ids(done.stdout)
    if done.returncode not in (0, 1) or (done.returncode == 1 and not ids):
        ids.append(f"(pytest exited {done.returncode} naming no test)")
    return ids


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", "--repeats", type=int, default=20)
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args(argv)
    tally: Counter = Counter()
    for i in range(1, args.repeats + 1):
        start = time.monotonic()
        ids = run_once(args.paths)
        tally.update(set(ids))
        print(f"repeat {i}/{args.repeats}: {len(ids)} failed "
              f"({time.monotonic() - start:.1f} s)", flush=True)
    print(f"{args.repeats} repeat(s) of {' '.join(args.paths)}: "
          f"{len(tally)} test id(s) failed at least once")
    for test_id, count in sorted(tally.items()):
        print(f"  {count}/{args.repeats}  {test_id}")
    return 1 if tally else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
