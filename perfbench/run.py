#!/usr/bin/env python3
"""jdvs benchmark entry point.

Builds the benchmark (and the jdvs library from ../src) on first use, then
runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: testbed_fabric, realtime_mixed (see perfbench/NOTES.md). The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; every metric is also printed above it by name with its
unit. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) inside the checkout.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own unit tests instead.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not (ROOT / "src" / "jdvs" / "jdvs.h").is_file():
        log(f"jdvs sources not found under {ROOT / 'src'}; nothing to build")
        return None
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent first runs share one build
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                log("configure failed")
                return None
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("build failed")
            return None
    binary = out / target
    return binary if binary.is_file() else None


def run(cmd, timeout):
    """Runs `cmd` in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout} s")
        return 1, ""
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        if binary is None:
            return 2
        return subprocess.run([str(binary)], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("jdvs_perfbench")
    if binary is None:
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(build_dir() / "work")]
    code, out = run(cmd, RUN_TIMEOUT_S)
    # Relay the report, keeping the result object on the last line.
    result = None
    for line in out.splitlines():
        if line.startswith('{"correct"'):
            result = line
        else:
            print(line)
    if result is None:
        log(f"no result line (exit code {code})")
        return code or 1
    json.loads(result)  # refuse to print a malformed result
    print(result, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
