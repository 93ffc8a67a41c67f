#!/usr/bin/env python3
"""Build hsw_bench from this checkout and run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures bench/e2e (a CMake project that compiles the repository's
libraries and the benchmark) into $CARGO_TARGET_DIR/build-e2e, or
build-e2e at the checkout root when that is unset, builds hsw_bench and
runs it from the checkout root. The
benchmark's own report (every metric with its unit, the ledger on traced
runs) passes through; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end_to_end metrics
of BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.
The full result, with its provenance, stays in <build>/results/.

Exits non-zero without a result line when the sources are missing, the
build fails, or a metric BENCHMARK.json names was not measured; exits 1
after the result line when an output check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no repository sources at {ROOT}; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "hsw_bench"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(step))


def result_line(result, spec, traced):
    names = spec["per_layer" if traced else "end_to_end"]
    measured = dict(result["end_to_end"])
    if traced:
        # Ungated end-to-end metrics (p99, CPU per op) are recorded with
        # the per-layer ones.
        measured.update(result["extra"])
        measured.update(result["layers"])
    metrics = {}
    for metric in names:
        got = measured.get(metric["name"])
        if got is None or got["value"] is None or got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']} was not measured in {metric['unit']}")
        metrics[metric["name"]] = {"value": got["value"], "unit": metric["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ""), "build-e2e")
    build(build_dir)

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    result_path = os.path.join(results, stem + ".json")
    command = [os.path.join(build_dir, "hsw_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--json", result_path]
    if args.trace:
        command.append("--traced")
    sys.stdout.flush()
    try:
        code = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"hsw_bench did not finish within {RUN_TIMEOUT_S} s")
    if code not in (0, 1) or not os.path.isfile(result_path):
        fail(f"hsw_bench exited with {code} and no result")
    with open(result_path) as f:
        result = json.load(f)
    print(json.dumps(result_line(result, spec, args.trace == 1)))
    sys.exit(code)


if __name__ == "__main__":
    main()
