#!/usr/bin/env python3
"""End-to-end OBD campaign benchmark: build, run one workload, print JSON.

Run from the repository root:

  python3 campaign_bench/run.py --workload obd_topoff --seed 1 --seconds 10 --trace 0

The first run configures and builds campaign_bench/CMakeLists.txt (the
repository's library, the obd_atpg CLI, and the campaign_bench binary) under
.bench_build/; later runs only re-check the build. Build output goes to
stderr. The last line of stdout is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes a Chrome/Perfetto trace under .bench_build/campaign_bench_out/).
--smoke runs one round with one set-up repetition. Workloads and metrics
are described in campaign_bench/README.md.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "campaign_bench")
OUT = os.path.join(ROOT, ".bench_build", "campaign_bench_out")
WORKLOADS = ("obd_topoff", "obd_threads", "stuck_mult", "obd_sharded")
# The whole run must end within 180 s once built.
RUN_LIMIT_S = 170.0


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def cpu_count():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configures once, then (re)builds; returns the binary's path or None."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(cpu_count()),
                      "--target", "campaign_bench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                log("build failed: " + " ".join(cmd))
                return None
    exe = os.path.join(BUILD, "campaign_bench")
    return exe if os.path.exists(exe) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    exe = build()
    if exe is None:
        return 1
    os.makedirs(OUT, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group, so a timeout also stops any shard children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"campaign_bench exceeded {RUN_LIMIT_S:.0f} s")
        return 1
    if proc.returncode != 0:
        log(f"campaign_bench exited with {proc.returncode}")
        return 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("campaign_bench printed no JSON result")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log(f"malformed result keys {sorted(result)}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
