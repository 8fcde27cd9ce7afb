#!/usr/bin/env python3
"""Compare two result files of run.py: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit), B the candidate.  One row per (end-to-end metric, workload):
both medians with their quartiles, B as a ratio of A, the bound from
BENCHMARK.json and a verdict:

* ``regressed`` / ``improved`` - B's median is worse / better than A's by
  more than the bound;
* ``unresolved`` - the runs' inter-quartile spread exceeds the bound and
  their repetitions overlap, so neither "changed" nor "unchanged" can be
  claimed (choosing-metrics, section 6.5);
* ``ok`` - within the bound.

Simulated statistics are exact: the per-workload counts and
``timing.stats_sha256`` must be equal.  Exits 1 on any ``regressed`` row
or count mismatch, 2 when the files cannot be compared.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def verdict(a, b, better, bound):
    """The verdict for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
    a_vals = [sign * v for v in a["values"]]
    b_vals = [sign * v for v in b["values"]]
    overlap = not (max(b_vals) < min(a_vals) or max(a_vals) < min(b_vals))
    if spread > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "ok"


def _cell(m):
    return f"{m['value']:.4g} [{m['q1']:.4g}..{m['q3']:.4g}]"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(argv[0], encoding="utf-8") as f:
        base = json.load(f)
    with open(argv[1], encoding="utf-8") as f:
        cand = json.load(f)
    seeds = base["provenance"]["seed"], cand["provenance"]["seed"]
    if seeds[0] != seeds[1]:
        print(f"error: seeds differ ({seeds[0]} vs {seeds[1]}); the inputs, "
              f"and so every count, differ too", file=sys.stderr)
        return 2

    bad = 0
    tally = {"ok": 0, "improved": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':<14} {'metric':<17} {'A median [q1..q3]':>34} "
          f"{'B median [q1..q3]':>34} {'B/A':>20} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a_block = base["workloads"][workload]
        b_block = cand["workloads"][workload]
        for metric in spec["end_to_end"]:
            a = a_block["end_to_end"][metric["name"]]
            b = b_block["end_to_end"][metric["name"]]
            word = verdict(a, b, metric["better"], metric["bound"])
            tally[word] += 1
            bad += word == "regressed"
            ratio = (f"{b['value'] / a['value']:.3f}x of "
                     f"{a['value']:.4g} {metric['unit']}")
            print(f"{workload:<14} {metric['name']:<17} {_cell(a):>34} "
                  f"{_cell(b):>34} {ratio:>20} {metric['bound']:>6.2f}  {word}")
        for key in sorted(set(a_block["counts"]) | set(b_block["counts"])):
            if a_block["counts"].get(key) != b_block["counts"].get(key):
                bad += 1
                print(f"{workload:<14} count {key}: "
                      f"{a_block['counts'].get(key)} != "
                      f"{b_block['counts'].get(key)}  MISMATCH")
        if a_block["stats_sha256"] != b_block["stats_sha256"]:
            bad += 1
            print(f"{workload:<14} timing.stats_sha256: "
                  f"{a_block['stats_sha256'][:16]} != "
                  f"{b_block['stats_sha256'][:16]}  MISMATCH")
        for block, label in ((a_block, "A"), (b_block, "B")):
            if block["failed"]:
                bad += 1
                print(f"{workload:<14} {label}: {block['failed']} of "
                      f"{block['attempted']} operations failed")
    print(", ".join(f"{n} {word}" for word, n in tally.items())
          + ("; counts and stats_sha256 equal" if not bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
