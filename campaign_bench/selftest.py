#!/usr/bin/env python3
"""Self-tests for the campaign benchmark.

  python3 campaign_bench/selftest.py

1. Smoke: every workload runs one round (--smoke), untraced and traced,
   and passes every output check (correct, failed == 0, hash match).
2. Names: the metrics each mode prints are exactly BENCHMARK.json's
   end_to_end (trace 0) and per_layer (trace 1) lists, with the same units;
   BENCHMARK.json's workloads are among the ones run.py accepts.
3. Generator: the stuck_mult netlist hash is the same for the same seed,
   differs across seeds, and matches the hash recorded for seed 1.
4. Traces: every traced run's span file passes tools/check_trace.py.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "campaign_bench_out")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's entry point: workload list)

# array_multiplier_bench(32, 1): changes only if the generator changes.
MULT32_SEED1_HASH = "0xbe3464c3d94a0cdc"
HASH_RE = re.compile(r"mult32 seed (\d+) netlist hash (0x[0-9a-f]{16})")

failures = []


def check(ok, msg):
    print(("ok   " if ok else "FAIL ") + msg, flush=True)
    if not ok:
        failures.append(msg)


def bench(workload, seed, trace):
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if res.returncode != 0:
        check(False, f"{workload} trace={trace} exited {res.returncode}:\n"
                     f"{res.stderr[-3000:]}")
        return None, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1]), res.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]
    check(set(listed) <= set(run.WORKLOADS) and len(set(listed)) == len(listed),
          "BENCHMARK.json workloads are distinct run.py workloads")
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    hashes = {}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result, err = bench(workload, 1, trace)
            if result is None:
                continue
            tag = f"{workload} trace={trace}"
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{tag}: outputs pass every check")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want[trace], f"{tag}: metric names and units match "
                  f"BENCHMARK.json (extra {sorted(set(got) - set(want[trace]))}, "
                  f"missing {sorted(set(want[trace]) - set(got))})")
            for seed, h in HASH_RE.findall(err):
                hashes.setdefault(int(seed), set()).add(h)
            if trace == 1:
                check(result["metrics"]["probe.hash_match"]["value"] == 1,
                      f"{tag}: probe reproduces run_campaign")
                path = os.path.join(OUT, f"trace-{workload}-seed1.json")
                checker = os.path.join(ROOT, "tools", "check_trace.py")
                if os.path.exists(checker):
                    spans = ["campaign", "collapse", "prepass", "topoff", "matrix"]
                    cmd = [sys.executable, checker, path]
                    for s in spans:
                        cmd += ["--require-span", s]
                    check(subprocess.run(cmd).returncode == 0,
                          f"{tag}: span file passes check_trace.py")

    _, err = bench("stuck_mult", 2, 0)
    for seed, h in HASH_RE.findall(err):
        hashes.setdefault(int(seed), set()).add(h)
    check(hashes.get(1) == {MULT32_SEED1_HASH},
          f"generator: seed 1 hash is stable and recorded ({hashes.get(1)})")
    check(len(hashes.get(2, ())) == 1 and hashes.get(2) != hashes.get(1),
          f"generator: seed 2 gives another netlist ({hashes.get(2)})")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
