#!/usr/bin/env python3
"""Exact check of an end-to-end benchmark run's deterministic outputs.

Usage:
    python3 bench/check_e2e_outputs.py EXPECTED.json RESULT.json

EXPECTED.json (committed under bench/baselines/) names a workload and seed
and, under "exact", the metrics whose values a run of them must reproduce
to the last printed digit: compression ratio, uplink bytes and final
accuracy depend only on the seed, so any change means a payload or a
trained byte moved. RESULT.json is the file bench/e2e/run.py writes to
build/e2e/results/<workload>-seed<seed>-trace0.json; a metric is looked up
in its "end_to_end" group, then in "extra".

Exit status: 0 when every value matches, 1 on any difference, 2 on a
result of another workload or seed, or a metric missing from it.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as fh:
        expected = json.load(fh)
    with open(sys.argv[2], encoding="utf-8") as fh:
        result = json.load(fh)
    for key in ("workload", "seed"):  # the result writes the seed as text
        if str(result.get(key)) != str(expected[key]):
            print(f"result {key} {result.get(key)!r}, expected "
                  f"{expected[key]!r}", file=sys.stderr)
            return 2
    status = 0
    for name, want in expected["exact"].items():
        group = next((g for g in ("end_to_end", "extra")
                      if name in result.get(g, {})), None)
        if group is None:
            print(f"{name}: missing from the result", file=sys.stderr)
            return 2
        got = result[group][name]["value"]
        verdict = "ok" if got == want else "DIFFERS"
        print(f"{name}: {got!r} (expected {want!r}) {verdict}")
        if got != want:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
