#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

    python3 perfbench/run.py --workload zipf_poll --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench with an
optimised build type; later calls rebuild incrementally. The driver's
output is relayed; the last stdout line is the result object. Each
result is also recorded, with its provenance, under
.bench_build/perfbench-results/.
"""
import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("tcp_stream", "zipf_kernel", "zipf_poll", "chaos_storm")
OPTIMISED = ("Release", "RelWithDebInfo")
BUILD_TYPE = "RelWithDebInfo"
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def cmake_cache(build):
    cache = {}
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def build_driver(root, build):
    os.makedirs(build, exist_ok=True)
    # Serialise concurrent builds in one checkout.
    with open(os.path.join(build, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if "CMAKE_BUILD_TYPE" not in cmake_cache(build):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                 f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", build, "--target", "perfbench_driver",
             "-j", jobs],
            check=True, stdout=sys.stderr)
    return os.path.join(build, "perfbench_driver")


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return out.stdout.splitlines()[0].strip() if out.stdout else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root):
    """sha256 over the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(root, cache):
    commit = "none (not a git checkout)"
    if os.path.exists(os.path.join(root, ".git")):
        rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if rev.returncode == 0:
            commit = rev.stdout.strip()
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "compiler": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                "--version"]),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_commit": commit,
        "source_sha256": source_digest(root),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {root}/src")
    build = os.path.join(root, ".bench_build", "perfbench")
    try:
        driver = build_driver(root, build)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    cache = cmake_cache(build)
    if cache.get("CMAKE_BUILD_TYPE") not in OPTIMISED:
        fail(f"refusing build type {cache.get('CMAKE_BUILD_TYPE')!r}; "
             f"a baseline must be one of {OPTIMISED}", code=3)

    results = os.path.join(root, ".bench_build", "perfbench-results")
    os.makedirs(results, exist_ok=True)
    prov = provenance(root, cache)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", results]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"driver exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result object")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "log": lines[:-1], "result": result}
    path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    for line in lines[:-1]:
        print(line)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
