"""Show that the benchmark's correctness gate can fail.

    python3 perfbench/negative_control.py

Runs one theorem-deep measurement against the checks of manifest.json with
one case count off by one, and exits 0 only if that run reports failed > 0.
run.py turns failed > 0 into correct = false and exit code 1.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    manifest = json.loads((run.HERE / "manifest.json").read_text())
    checks = manifest["theorem-deep"]["checks"]
    checks[0]["cases"] += 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    record = run.measure("theorem-deep", 0, 1, False, checks, names)
    caught = record["failed"] > 0
    print(f"wrong case count: fail_share={record['failed'] / record['attempted']:g} "
          f"({record['failed']}/{record['attempted']}) -> gate "
          f"{'failed as it must' if caught else 'DID NOT FAIL'}")
    for problem in record["problems"][:3]:
        print(f"  problem: {problem}")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
