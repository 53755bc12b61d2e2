"""Run ``perfbench/run.py`` in alternating parent/change pairs and summarise.

Usage (from any directory):

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --pairs 10 --first-seed 101 --seconds 8 --trace 0 --out BENCH_10.json

Each checkout is a full tree with its own ``perfbench/`` and ``src/``; the
benchmark runs unchanged in it, one process at a time. Pair i uses seed
``first-seed + i`` on every workload; even pairs run the parent first, odd
pairs the change first, so both sides share the machine's slow and fast
phases. The output file is rewritten after every run, so an interrupted
session keeps what it measured; an existing output file is extended, so
untraced and traced batches can share one file. For each workload (traced
runs apart) and metric the script prints the median and quartiles of both
sides, the difference of the medians (change minus parent) against the
parent's interquartile distance and whether it exceeds that distance, and
the number of pairs the change wins (lower or higher as ``BENCHMARK.json``
declares the metric), and per side how many runs were not ``correct`` and
how many samples failed. The workloads and the metrics' directions are read
from the change checkout's ``BENCHMARK.json``. The JSON summary holds the
same figures.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")


def _declared(checkout):
    """The checkout's BENCHMARK.json."""
    try:
        with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise SystemExit(f"error: cannot read BENCHMARK.json in {checkout}: {e}")


def _parse_args(argv):
    # the workload choices come from the change's BENCHMARK.json, so --change
    # is read first
    early = argparse.ArgumentParser(add_help=False)
    early.add_argument("--change")
    change = early.parse_known_args(argv)[0].change
    declared = _declared(change) if change else {"workloads": []}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in declared["workloads"]],
                        help="workload to run (repeatable; default all that "
                             "BENCHMARK.json declares)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    args.declared = declared
    return args


def _git_head(path):
    try:
        return subprocess.run(["git", "-C", path, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _directions(declared):
    """Metric name -> "lower" or "higher", from a BENCHMARK.json document."""
    return {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run; returns its JSON result (the last line of its
    standard output)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(runs, directions):
    """Per workload and metric, traced runs apart: both sides' median and
    quartiles over the pairs, and the pairs the change wins; per workload and
    side, the runs that were not ``correct`` and the samples that failed."""
    summary = {}
    for workload, trace in dict.fromkeys((r["workload"], r["trace"]) for r in runs):
        by_seed = {}
        for r in runs:
            if (r["workload"], r["trace"]) == (workload, trace):
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["output"]
        pairs = [(s, v) for s, v in sorted(by_seed.items()) if len(v) == 2]
        entry = {"seeds": [s for s, _ in pairs]}
        for side in SIDES:
            outputs = [v[side] for _, v in pairs]
            entry[side] = {"not_correct": sum(not o["correct"] for o in outputs),
                           "failed_samples": sum(o["failed"] for o in outputs)}
        metrics = pairs[0][1]["parent"]["metrics"] if pairs else {}
        for name in metrics:
            parent = np.array([v["parent"]["metrics"][name]["value"] for _, v in pairs])
            change = np.array([v["change"]["metrics"][name]["value"] for _, v in pairs])
            higher = directions.get(name, "lower") == "higher"
            wins = int(np.sum(change > parent if higher else change < parent))
            q25, q75 = np.percentile(parent, [25, 75])
            difference = float(np.median(change) - np.median(parent))
            entry[name] = {"parent_median": float(np.median(parent)),
                           "parent_q25": float(q25), "parent_q75": float(q75),
                           "change_median": float(np.median(change)),
                           "change_q25": float(np.percentile(change, 25)),
                           "change_q75": float(np.percentile(change, 75)),
                           "difference": difference, "parent_iqr": float(q75 - q25),
                           "exceeds_parent_iqr": bool(abs(difference) > q75 - q25),
                           "change_wins": wins, "pairs": len(pairs)}
        summary[f"{workload} traced" if trace else workload] = entry
    return summary


def report(summary):
    for workload, entry in summary.items():
        print(f"{workload}: {len(entry['seeds'])} pairs, seeds {entry['seeds']}")
        for side in SIDES:
            print(f"  {side}: {entry[side]['not_correct']} runs not correct, "
                  f"{entry[side]['failed_samples']} samples failed")
        for name, s in entry.items():
            if name in ("seeds",) + SIDES:
                continue
            print(f"  {name:34s} parent {s['parent_median']:.6g} "
                  f"[{s['parent_q25']:.6g}, {s['parent_q75']:.6g}]  "
                  f"change {s['change_median']:.6g} "
                  f"[{s['change_q25']:.6g}, {s['change_q75']:.6g}]  "
                  f"diff {s['difference']:+.6g} vs IQR {s['parent_iqr']:.6g} "
                  f"({'exceeds' if s['exceeds_parent_iqr'] else 'within'})  "
                  f"wins {s['change_wins']}/{s['pairs']}")


def main(argv=None):
    args = _parse_args(argv)
    workloads = args.workload or [w["name"] for w in args.declared["workloads"]]
    directions = _directions(args.declared)
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    else:
        doc = {"description": args.description,
               "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                          "--seconds <seconds> --trace <trace>",
               "parent": _git_head(args.parent), "change": _git_head(args.change),
               "machine": f"{platform.machine()} {platform.system()}, {os.cpu_count()} CPUs, "
                          f"Python {platform.python_version()}, numpy {np.__version__}",
               "summary": {}, "runs": []}
    order = len(doc["runs"])
    for i in range(args.pairs):
        seed = args.first_seed + i
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                output = run_once(checkout, workload, seed, args.seconds, args.trace)
                doc["runs"].append({"side": side, "workload": workload, "seed": seed,
                                    "trace": args.trace, "seconds": args.seconds,
                                    "order": order, "output": output})
                order += 1
                print(f"pair {i} {workload} {side}: correct={output['correct']} "
                      f"failed={output['failed']}", file=sys.stderr)
                doc["summary"] = summarise(doc["runs"], directions)
                with open(args.out, "w") as fh:
                    json.dump(doc, fh, indent=1)
    report(doc["summary"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
