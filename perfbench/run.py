#!/usr/bin/env python3
"""Build and run the HART / hartd benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake project over ../src) into $CARGO_TARGET_DIR or
.bench_build, runs one workload, and prints its report. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; metrics holds exactly the end_to_end metrics named in
BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("embedded_dict", "svc_write_churn", "svc_read_zipf")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the perfbench target; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "hart", "hart.h")):
        fail("HART sources not found under %s/src" % ROOT)
    if not shutil.which("cmake"):
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, stderr=sys.stderr,
                   check=True)
    return os.path.join(build_dir, "perfbench")


def source_identity():
    """The git commit when there is one, and a digest of src/ always."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return commit, h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)
    tmpdir = os.path.join(build_dir, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    commit, digest = source_identity()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmpdir", tmpdir, "--commit", commit, "--source-digest", digest]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("no result line (exit code %d)" % proc.returncode)

    # Every end-to-end metric must be measured. A per-layer metric that does
    # not apply to the workload (its layer does no such work there) is 0.
    # Any per-layer name the binary reports must be one BENCHMARK.json knows.
    names = {m["name"] for m in wanted}
    if args.trace:
        unknown = set(result["metrics"]) - names
        if unknown:
            fail("metrics not in BENCHMARK.json: %s" % ", ".join(sorted(unknown)))
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None and args.trace:
            got = {"value": 0.0, "unit": m["unit"]}
        if got is None:
            fail("metric %s missing from the %s run" % (m["name"], args.workload))
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, expected %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
