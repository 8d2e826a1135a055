#!/usr/bin/env python3
"""Compare benchmark records against the bounds in BENCHMARK.json.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

``A`` (the baseline) and ``B`` are records written by ``run.py --out``,
one per run, all with the same seed and run length; records that differ
in either are refused (exit 2).  A run's value of a metric is one
sample; a run with failed reps gives none for its workload.  For every
workload and end-to-end metric, prints each side's median and quartiles
over its runs, the change of B's median against A's in the metric's
better direction, and a verdict:

- ``unresolved``: a side has no samples, or a side's run-to-run spread
  (quartile distance over median) is wider than the bound, so the bound
  cannot tell a change from noise — unless every B run beats every A
  run (``better``), or every A run beats every B run and B's median is
  worse by more than the bound (``worse``);
- ``worse``: B's median is worse than A's by more than the bound;
- ``better``: B's median is better than A's by more than the bound;
- ``within bound``: otherwise.

Exits 1 if any pair is ``worse``.  A single run per side shows no
spread; a claim needs ten or more.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Dict, List, Sequence, Tuple

from run import SPEC_PATH, quartiles

#: Settings every record must share to be compared.
SAME = ("seed", "seconds")


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative change of B's median, positive = better)."""
    if not a or not b:
        return "unresolved", math.nan
    qa, qb = quartiles(a), quartiles(b)
    if qa[1] <= 0 or qb[1] <= 0:
        return "unresolved", math.nan
    sign = 1 if better == "higher" else -1
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if spread > bound:
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "better", change
        if max(sign * v for v in b) < min(sign * v for v in a) \
                and change < -bound:
            return "worse", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "within bound", change


def samples(docs: Sequence[Dict], workload: str, metric: str) -> List[float]:
    """One value per run of ``workload`` that measured ``metric`` and
    had no failed rep."""
    values = []
    for doc in docs:
        record = doc["workloads"].get(workload)
        if record and record["failed"] == 0 and metric in record["metrics"]:
            values.append(record["metrics"][metric]["value"])
    return values


def compare(a_docs: Sequence[Dict], b_docs: Sequence[Dict],
            spec: Dict) -> List[Dict]:
    workloads = sorted(set().union(*(d["workloads"] for d in a_docs))
                       & set().union(*(d["workloads"] for d in b_docs)))
    rows = []
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = samples(a_docs, workload, name)
            b = samples(b_docs, workload, name)
            result, change = verdict(a, b, metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"],
                         "a": quartiles(a) if a else [math.nan] * 3,
                         "b": quartiles(b) if b else [math.nan] * 3,
                         "runs": (len(a), len(b)),
                         "change": change, "bound": metric["bound"],
                         "verdict": result})
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "--" in args:
        cut = args.index("--")
        sides = [args[:cut], args[cut + 1:]]
    elif len(args) == 2:
        sides = [args[:1], args[1:]]
    else:
        sides = []
    if len(sides) != 2 or not all(sides):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    docs = []
    for paths in sides:
        side = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                side.append(json.load(fh))
        docs.append(side)
    first = docs[0][0]["host"]
    for doc in docs[0] + docs[1]:
        for key in SAME:
            if doc["host"][key] != first[key]:
                print(f"compare: the records differ in {key} "
                      f"({first[key]} vs {doc['host'][key]})",
                      file=sys.stderr)
                return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(docs[0], docs[1], spec)
    for row in rows:
        (a1, am, a3), (b1, bm, b3) = row["a"], row["b"]
        print(f"{row['workload']:<20} {row['metric']:<17} "
              f"A {am:.6g} [{a1:.6g}, {a3:.6g}]  "
              f"B {bm:.6g} [{b1:.6g}, {b3:.6g}] {row['unit']:<4} "
              f"runs {row['runs'][0]}/{row['runs'][1]}  "
              f"{row['change']:+.1%} (bound {row['bound']:.0%})  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
