#!/usr/bin/env python3
"""Compare two perf ledgers, one row per workload x end-to-end metric.

    python3 perf/compare.py BASE.json NEW.json [--aa]

Each row gives base, new, their ratio, the metric's bound from
``BENCHMARK.json`` and a verdict: ``worse`` (beyond the bound in the bad
direction), ``better`` (beyond it in the good one), ``within``, or
``unresolved`` when the run-to-run spread recorded in either ledger
(``run.py --repeat``) is wider than the bound.  ``failed_share`` may not rise
at all.  Exits non-zero on any ``worse``, on a higher ``failed_share`` and on
a workload or metric missing from either ledger.  ``--aa`` compares two runs
of one commit: a difference beyond the bound in either direction ``differs``
and fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def worsening(base, new, better):
    """By what share of ``base`` the metric got worse (negative: better)."""
    change = (new - base) / base
    return change if better == "lower" else -change


def verdict(worse_by, bound, spreads, aa):
    if any(spread is not None and spread > bound for spread in spreads):
        return "unresolved"
    if aa:
        return "differs" if abs(worse_by) > bound else "agrees"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "within"


def compare(base, new, metrics, aa=False):
    """Rows ``(workload, metric, base, new, ratio, bound, verdict)``."""
    rows = []
    for name in base["workloads"]:
        old_entry, new_entry = base["workloads"][name], new["workloads"].get(name)
        if new_entry is None:
            rows.append((name, "*", None, None, None, None, "missing"))
            continue
        for metric in metrics:
            old = old_entry["metrics"].get(metric["name"])
            cur = new_entry["metrics"].get(metric["name"])
            if old is None or cur is None:
                rows.append((name, metric["name"], None, None, None,
                             metric["bound"], "missing"))
                continue
            worse_by = worsening(old["value"], cur["value"], metric["better"])
            rows.append((
                name, metric["name"], old["value"], cur["value"],
                cur["value"] / old["value"], metric["bound"],
                verdict(worse_by, metric["bound"],
                        (old.get("spread"), cur.get("spread")), aa)))
        old_share, new_share = old_entry["failed_share"], new_entry["failed_share"]
        rows.append((name, "failed_share", old_share, new_share, None, 0.0,
                     "worse" if new_share > old_share else "within"))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--aa", action="store_true",
                        help="the ledgers are two runs of the same commit")
    args = parser.parse_args(argv)
    base = json.loads(Path(args.base).read_text("utf-8"))
    new = json.loads(Path(args.new).read_text("utf-8"))
    metrics = json.loads(BENCHMARK_JSON.read_text("utf-8"))["end_to_end"]
    rows = compare(base, new, metrics, args.aa)
    print(f"{'workload':<18}{'metric':<20}{'base':>12}{'new':>12}"
          f"{'ratio':>8}{'bound':>7}  verdict")

    def cell(value, width, digits):
        return f"{'-':>{width}}" if value is None else f"{value:>{width}.{digits}f}"
    for name, metric, old, cur, ratio, bound, outcome in rows:
        print(f"{name:<18}{metric:<20}{cell(old, 12, 4)}{cell(cur, 12, 4)}"
              f"{cell(ratio, 8, 3)}{cell(bound, 7, 2)}  {outcome}")
    failing = {"worse", "missing", "differs"}
    return 1 if any(row[-1] in failing for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
