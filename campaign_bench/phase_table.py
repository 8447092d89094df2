#!/usr/bin/env python3
"""Per-circuit phase shares and thread scaling from the traced benchmark.

Runs the traced (--trace 1) obd_topoff and obd_threads workloads, reads the
spans they write, and prints, per circuit and thread count, the median time
of each campaign layer and its share of the campaign, then the 1-thread vs
n-thread scaling of the campaign and its prepass, and the per-layer
counters behind the thread pessimization (cone residency, prepass work).

  python3 campaign_bench/phase_table.py [--seed N] [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "campaign_bench_out")
LAYERS = ("collapse", "prepass", "generate", "sat", "matrix", "compact")


def run(workload, seed, seconds):
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"phase_table: {workload} reported correct=false")
    return result["metrics"]


def layer_medians(trace_path):
    """{circuit: {layer: median seconds}} over the probe's campaigns."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans, stack = {}, []
    for ev in events:
        if ev["ph"] == "B":
            a = ev["args"]
            spans[a["span"]] = {"name": ev["name"], "parent": a["parent"],
                                "detail": a["detail"], "t0": ev["ts"]}
            stack.append(a["span"])
        elif ev["ph"] == "E":
            s = spans[stack.pop()]
            s["dur"] = (ev["ts"] - s["t0"]) * 1e-6
    per_campaign = {}
    for sid, s in spans.items():
        if s["name"] == "campaign" and s["parent"] < 0:
            per_campaign[sid] = {"circuit": s["detail"], "campaign": s["dur"]}
    for s in spans.values():
        parent = s["parent"]
        if s["name"] in ("generate", "sat"):
            parent = spans[parent]["parent"]  # topoff -> campaign
        if parent in per_campaign and s["name"] in LAYERS:
            c = per_campaign[parent]
            c[s["name"]] = c.get(s["name"], 0.0) + s["dur"]
    out = {}
    for c in per_campaign.values():
        rows = out.setdefault(c["circuit"], {})
        for k in ("campaign",) + LAYERS:
            rows.setdefault(k, []).append(c.get(k, 0.0))
    return {circ: {k: statistics.median(v) for k, v in rows.items()}
            for circ, rows in out.items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()

    tables, metrics = {}, {}
    for workload in ("obd_topoff", "obd_threads"):
        metrics[workload] = run(workload, args.seed, args.seconds)
        tables[workload] = layer_medians(
            os.path.join(OUT, f"trace-{workload}-seed{args.seed}.json"))

    print(f"Phase medians per campaign, seed {args.seed} "
          "(OBD, --backtracks 20 --sat-escalate; generate = PODEM top-off)")
    print(f"| workload | circuit | total s | " +
          " | ".join(f"{k} s (share)" for k in LAYERS) + " |")
    print("|---|---|---|" + "---|" * len(LAYERS))
    for workload, table in tables.items():
        for circ, m in sorted(table.items()):
            cells = " | ".join(f"{m[k]:.3f} ({100 * m[k] / m['campaign']:.0f}%)"
                               for k in LAYERS)
            print(f"| {workload} | {circ} | {m['campaign']:.3f} | {cells} |")

    one, many = tables["obd_topoff"], tables["obd_threads"]
    print("\nThread scaling (obd_topoff = 1 thread, obd_threads = all CPUs)")
    print("| circuit | total 1t | total nt | prepass 1t | prepass nt |")
    print("|---|---|---|---|---|")
    for circ in sorted(one):
        print(f"| {circ} | {one[circ]['campaign']:.3f} s | "
              f"{many[circ]['campaign']:.3f} s | {one[circ]['prepass']:.3f} s | "
              f"{many[circ]['prepass']:.3f} s |")
    print("\nCounters summed over the workload's circuits")
    print("| metric | obd_topoff | obd_threads |")
    print("|---|---|---|")
    for k in ("sim.cone_resident", "sim.cone_peak_bytes",
              "prepass.fault_block_evals", "topoff.calls",
              "topoff.wasted_calls", "probe.span_coverage", "probe.overhead"):
        print(f"| {k} | {metrics['obd_topoff'][k]['value']:.6g} | "
              f"{metrics['obd_threads'][k]['value']:.6g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
