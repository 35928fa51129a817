#!/usr/bin/env python3
"""Builds the HTAP benchmark from source and runs one workload.

    python3 htapbench/run.py --workload tpcc_q2 --seed 1 --seconds 20 --trace 0

Run from the repository root. The engine (src/) and the benchmark package
(htapbench/) are compiled with CMake into $CARGO_TARGET_DIR/htapbench
(default .bench_build/htapbench); later runs reuse the build. The build log
and the per-run report go to stderr; the last line of stdout is the JSON
result. Exits non-zero, printing no result, when the build or the run fails.
"""
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "htapbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("htapbench: engine sources (src/) not found next to htapbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j4", "--target", "htapbench"],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, "htapbench")


def extract_result(stdout):
    """Returns the result object from the last non-empty line of `stdout`,
    or None when that line is not a well-formed result."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return None
    if not isinstance(res["correct"], bool) or not isinstance(res["metrics"], dict):
        return None
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool):
            return None
    for m in res["metrics"].values():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return None
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            return None
    return res


def main(argv):
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"htapbench: build failed: {e}", file=sys.stderr)
        return 1
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        proc = subprocess.run([binary, *argv, "--tmp-dir", tmp],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("htapbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"htapbench: run exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = extract_result(proc.stdout)
    if res is None:
        print("htapbench: run printed no well-formed result", file=sys.stderr)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
