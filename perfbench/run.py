"""iktrack benchmark: tracking latency, pipeline time and accuracy.

Usage (from the repository root):

    python3 perfbench/run.py --workload h66-run --seed 1 --seconds 8 --trace 0

Workloads: h66-run, h48-limits, h66-wholebody (see perfbench/README.md).
The program is imported from ``src/`` next to this directory; the model
fixtures are read from ``fixtures/``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a run with span recorders around the program's entry points.
"""
import os

# one process, one thread: pin the BLAS pools before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
RUNS = os.path.join(HERE, "runs")

WORKLOADS = {
    "h66-run": {"model": "human66.json", "source": "human66.json", "method": "dynamical",
                "amplitude": 0.5, "band": (1.5, 3.0), "ori_ceiling": True},
    "h48-limits": {"model": "human48.json", "source": "human66.json", "method": "dynamical",
                   "amplitude": 1.0, "band": (0.3, 1.0)},
    "h66-wholebody": {"model": "human66.json", "source": "human66.json",
                      "method": "whole-body", "amplitude": 0.5, "band": (1.5, 3.0)},
}


def _import_program():
    """Import iktrack from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "iktrack", "__init__.py")):
        raise SystemExit(f"error: no iktrack sources under {SRC}")
    sys.path.insert(0, SRC)
    import iktrack
    if not os.path.abspath(iktrack.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: iktrack imported from {iktrack.__file__}, not {SRC}")
    return iktrack


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    wl = WORKLOADS[args.workload]
    for name in {wl["model"], wl["source"]}:
        if not os.path.isfile(os.path.join(FIXTURES, name)):
            raise SystemExit(f"error: missing fixture {os.path.join(FIXTURES, name)}")
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        raise SystemExit(f"error: no BENCHMARK.json in {ROOT}")
    ik = _import_program()
    import bench  # noqa: E402  (needs numpy and iktrack on the path)

    workdir = os.path.join(RUNS, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = bench.run(ik, wl, args, FIXTURES, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, (ok, detail) in result["checks"].items():
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)
    if result["error"]:
        print(f"first failure: {result['error']}", file=sys.stderr)
    if "unscaled" in result:
        print("unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in result["unscaled"].items()),
              file=sys.stderr)
    # names and units come from BENCHMARK.json, the one list of metrics
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = result["per_layer"]
    else:
        values = dict(result["end_to_end"], peak_rss_mb=result["rss"])
    unknown = {m["name"] for m in declared} ^ set(values)
    if unknown:
        raise SystemExit(f"error: metrics measured and declared differ: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": all(ok for ok, _ in result["checks"].values()),
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
