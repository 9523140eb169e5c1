#!/usr/bin/env python3
"""SmartML end-to-end benchmark runner.

Builds the benchmark (perfbench/CMakeLists.txt, which also builds the SmartML
library from this checkout) in Release mode under .bench_build/, runs one
workload and prints its result JSON as the last line of standard output.
Run from the root of a checkout:

  python3 perfbench/run.py --workload table4|serve-durable \
      --seed N --seconds S --trace 0|1

The line before the result records the environment: build type, compiler,
cores, the journal's filesystem and the host's steal ticks over the run, so
a noisy run can be told apart from a noisy program. Exits non-zero when the
build fails or any output check fails.
"""
import argparse
import glob
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
WORK = os.path.join(OUT, "work")
TIMEOUT_S = 175


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "smartml_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            # A failed configure must not leave a cache that skips it next time.
            if step[1] == "-S":
                shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return True


def cpu_ticks():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def filesystem_of(path):
    best, fstype = "", "unknown"
    with open("/proc/self/mountinfo") as f:
        for line in f:
            parts = line.split()
            mount = parts[4]
            fs = parts[parts.index("-") + 1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, fs
    return fstype


def build_info():
    info = {"build_type": "unknown", "compiler": "unknown"}
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
            if m:
                info["build_type"] = m.group(1)
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        ident = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        version = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if ident and version:
            info["compiler"] = ident.group(1) + " " + version.group(1)
    return info


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    kb = os.path.join(ROOT, "data", "seed_kb.txt")
    if not os.path.exists(kb) or not build():
        print("perfbench: no SmartML checkout to build here", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    traces = os.path.join(OUT, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(BUILD, "smartml_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--kb", kb, "--expected", os.path.join(HERE, "expected.json"),
               "--work-dir", WORK]
    if args.trace:
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    env = dict(build_info(), nproc=len(os.sched_getaffinity(0)),
               journal_fs=filesystem_of(WORK))
    steal0, total0 = cpu_ticks()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    steal1, total1 = cpu_ticks()
    env["steal_ticks"] = steal1 - steal0
    env["steal_frac"] = round((steal1 - steal0) / max(1, total1 - total0), 6)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print("perfbench: no result from the benchmark", file=sys.stderr)
        return done.returncode or 4
    print("env " + ", ".join("%s=%s" % kv for kv in sorted(env.items())))
    print(lines[-1])
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
