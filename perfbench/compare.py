#!/usr/bin/env python3
"""Compare two run sets of the benchmark, metric by metric.

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl]

Each file holds the result lines of repeated runs of one workload (the last
line run.py prints, one per line, each run with another seed). With one file
it prints each metric's median and quartile spread; with two it also judges
each metric against the bound and direction BENCHMARK.json fixes for it
(stats.compare) and exits 1 when any metric regressed.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load(path):
    """Metric name -> list of values, over the runs in `path`."""
    values = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                for name, m in json.loads(line)["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
    return values


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        spec = json.load(f)
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(argv[1])
    new = load(argv[2]) if len(argv) == 3 else None
    regressed = False
    for name, values in base.items():
        rule = rules.get(name, {})
        bound = rule.get("bound")
        line = "%-34s median %-12.6g spread %6.3f" % (name, stats.median(values),
                                                      stats.spread(values))
        if new is not None and name in new and bound is not None:
            verdict, d = stats.compare(values, new[name], rule["better"], bound)
            regressed |= verdict == "regressed"
            line += "  -> %-12.6g spread %6.3f worse_by %+7.3f  %s" % (
                d["new_median"], d["new_spread"], d["worse_by"], verdict)
        elif bound is not None:
            line += "  (bound %.2f)" % bound
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
