#!/usr/bin/env python3
"""The repo's benchmark: five named workloads, one command.

    python3 perf/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace 0|1] [--repeat K] [--smoke] [--out FILE]

Each workload runs in a fresh child process (so ``peak_rss_mb`` and
``setup_s`` are its own), is set up ``SETUPS`` times (``setup_s`` is their
median), measured for ``--seconds`` with every result checked, and printed
metric by metric with its unit.  ``--trace 1`` replaces the timed window by
the traced replay and prints the per-layer metrics instead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  See ``perf/README.md`` for what each name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import workloads  # noqa: E402

#: Length of one timed window; equals ``run_seconds`` in ``BENCHMARK.json``.
DEFAULT_SECONDS = 12
SMOKE_SECONDS = 2
#: Set-ups per run; ``setup_s`` is their median, each in a fresh process.
SETUPS = 3


def parse_arguments(argv):
    parser = argparse.ArgumentParser(
        description="Run the perf ledger's workloads and print every metric.")
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=list(workloads.WORKLOADS), metavar="NAME",
                        help="workloads to run (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the operation stream and parameter "
                             "sampling only (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed window per workload (default: "
                             f"{DEFAULT_SECONDS}; {SMOKE_SECONDS} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the traced replay and per-layer metrics "
                             "instead of the end-to-end ones")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds SEED, SEED+1, ...; "
                             "the ledger records their median and spread")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{workloads.SMOKE_TRIPLES}-triple document, "
                             f"{SMOKE_SECONDS} s windows, one set-up")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the ledger (every number of the run) here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds and --repeat must be positive")
    return args


def child_main(args):
    """One workload in this (fresh) process; the result is the last line."""
    result = workloads.run_child(
        args.workload[0], args.seed, args.seconds, bool(args.trace),
        args.smoke, args.spawned_at, args.setup_only)
    print(json.dumps(result))
    return 0


def spawn_child(name, seed, args, setup_only):
    command = [sys.executable, str(PERF_DIR / "run.py"), "--child",
               "--workload", name, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--spawned-at", repr(time.time())]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=False)
    if completed.returncode != 0:
        raise SystemExit(f"perf: {name} child exited with code "
                         f"{completed.returncode}")
    return json.loads(completed.stdout.splitlines()[-1])


def run_once(name, seed, args):
    """Set up ``SETUPS`` times, measure once; returns the child's result."""
    setups_wanted = 1 if args.smoke or args.trace else SETUPS
    setups, dataset_build_s, cold = [], 0.0, 0
    while True:
        final = len(setups) == setups_wanted - 1
        result = spawn_child(name, seed, args, setup_only=not final)
        if not result["dataset_hit"]:
            # A cold dataset cache: the child generated the document, which
            # is not set-up.  The next child finds it cached.
            dataset_build_s += result["dataset_build_s"]
            cold += 1
            if cold > 2:
                raise SystemExit("perf: the dataset cache under "
                                 f"{workloads.CACHE_DIR} does not keep entries")
            continue
        setups.append(result["setup_s"])
        if final:
            break
    result["setup_s_values"] = setups
    result["setup_s"] = statistics.median(setups)
    result["dataset_build_s"] = dataset_build_s
    result["seed"] = seed
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": result["setup_s"], "unit": "s"}
    return result


def spread(values):
    """Inter-quartile distance as a share of the median (None below 4 runs)."""
    if len(values) < 4:
        return None
    first, _second, third = statistics.quantiles(values, n=4)
    center = statistics.median(values)
    return (third - first) / center if center else None


def run_workload(name, args):
    """All ``--repeat`` runs of one workload, folded into one ledger entry."""
    runs = [run_once(name, args.seed + index, args)
            for index in range(args.repeat)]
    metrics = {}
    for metric, first in runs[0]["metrics"].items():
        values = [run["metrics"][metric]["value"] for run in runs]
        metrics[metric] = {"value": statistics.median(values),
                           "unit": first["unit"], "values": values,
                           "spread": spread(values)}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {
        "why": workloads.WORKLOADS[name].why,
        "document_triples": runs[0]["document_triples"],
        "correct": all(run["correct"] for run in runs),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "metrics": metrics,
        "runs": [{key: run[key] for key in
                  ("seed", "setup_s_values", "dataset_build_s", "info")}
                 for run in runs],
    }


def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=PERF_DIR, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "commit": commit,
        "loadavg_1m_at_start": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def print_workload(name, entry, args):
    kind = "traced replay" if args.trace else "timed window"
    print(f"\n== {name}: {entry['document_triples']} triples, "
          f"{args.seconds:g} s {kind}, seed {args.seed}"
          + (f"..{args.seed + args.repeat - 1}" if args.repeat > 1 else "")
          + f" ==\n   {entry['why']}")
    for metric, value in entry["metrics"].items():
        line = f"  {metric:<28}{value['value']:>14.4f} {value['unit']}"
        if value["spread"] is not None:
            line += f"   (median of {len(value['values'])}, " \
                    f"spread {value['spread']:.1%})"
        print(line)
    print(f"  {'failed_share':<28}{entry['failed_share']:>14.4f} share   "
          f"({entry['failed']} of {entry['attempted']} operations)")
    run = entry["runs"][-1]
    info = run["info"]
    print(f"  {'setup_s (each set-up)':<28}"
          + " ".join(f"{value:.3f}" for value in run["setup_s_values"])
          + f" s; dataset_build_s {run['dataset_build_s']:.2f} s")
    if args.trace:
        total = info["client_observed_ms"]
        print(f"  per operation, client-observed {total:.4f} ms "
              f"(self time and share of it by layer):")
        for layer, value in info["per_op_ms"].items():
            print(f"    {layer:<26}{value:>12.4f} ms {value / total:>8.1%}")
        unattributed = entry["metrics"]["unattributed_ms"]["value"]
        print(f"    {'unattributed_ms':<26}{unattributed:>12.4f} ms "
              f"{unattributed / total:>8.1%}")
        for key in ("trace_overhead_share", "rows_out", "bytes_out",
                    "generations_published", "snapshot_bytes", "triples",
                    "hit_ratio_source", "contention_x_by_class"):
            if key in info:
                print(f"  {key}: {info[key]}")
        return
    print(f"  latency_p95_ms over {info['samples']} samples"
          + (" (low_n: fewer than 10 beyond it)" if info["low_n"] else "")
          + f"; latency_p99_ms {info['latency_p99_ms']:.4f} ms")
    for key in ("read_ops_s", "write_ops_s"):
        if key in info:
            print(f"  {key:<28}{info[key]:>14.4f} ops/s")
    for cls, numbers in info["classes"].items():
        tail = numbers["tail"]
        print(f"    {cls:<10} count={numbers['count']:<6} "
              f"p50_ms={numbers['p50_ms']:<10.4f}"
              + (f" {tail['name']}_ms={tail['ms']:.4f}" if tail else ""))


def final_line(ledger):
    """The contract's last line; metric names carry the workload when
    several ran."""
    entries = ledger["workloads"]
    metrics = {}
    for name, entry in entries.items():
        for metric, value in entry["metrics"].items():
            key = metric if len(entries) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value["value"], "unit": value["unit"]}
    return {
        "correct": all(entry["correct"] for entry in entries.values()),
        "attempted": sum(entry["attempted"] for entry in entries.values()),
        "failed": sum(entry["failed"] for entry in entries.values()),
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_arguments(argv)
    if not (workloads.SRC_DIR / "repro").is_dir():
        print(f"perf: no program to measure under {workloads.SRC_DIR}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    env = environment()
    print(f"perf ledger: {workloads.LOAD_SHAPE}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if env["loadavg_1m_at_start"] > env["nproc"]:
        print(f"WARNING: load average {env['loadavg_1m_at_start']:.2f} exceeds "
              f"nproc {env['nproc']}; timings will be noisy", file=sys.stderr)
    ledger = {
        "schema": "sp2b-perf-ledger/1", "env": env,
        "load_shape": workloads.LOAD_SHAPE,
        "args": {"seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "repeat": args.repeat,
                 "smoke": args.smoke},
        "workloads": {},
    }
    for name in args.workload or list(workloads.WORKLOADS):
        ledger["workloads"][name] = run_workload(name, args)
        print_workload(name, ledger["workloads"][name], args)
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n",
                                  encoding="utf-8")
    sys.stdout.flush()
    print(json.dumps(final_line(ledger)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
