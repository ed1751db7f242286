#!/usr/bin/env python3
"""Summarize perfbench results: end-to-end medians and spreads, the tracing
overhead, and the per-layer breakdown with the end-to-end metric each layer
metric should move.

    python3 perfbench/report.py                  # summarize saved results
    python3 perfbench/report.py --run --workloads hot_reads,mixed_cold \\
        --seeds 1-10 --trace 0                   # run first, then summarize

Results are the JSON files perfbench/run.py leaves in <build dir>/results/
(build dir: $CARGO_TARGET_DIR, default .bench_build). The spread of a metric
is the distance between the first and third quartile of its per-run values
(statistics.quantiles, n=4) as a share of their median, the figure
BENCHMARK.json's bounds are checked against.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Module -> (its per-layer metric prefixes, the end-to-end metrics it should
# move, the workload it does most work in, the one it does little in).
LAYERS = [
    ("tails", ["read_point_tail_us", "read_scan_tail_us", "commit_tail_us",
               "degrade_lateness_tail_ms", "ops_failed_frac"],
     "user-visible, kept per layer: run-to-run spread wider than any bound",
     "-", "-"),
    ("index", ["index.", "query.index_overhead_x"], "read_point_p50_us",
     "hot_reads", "ingest_degrade"),
    ("service", ["service."], "read_point_tail_us, ops_failed_frac",
     "mixed_cold", "hot_reads, ingest_degrade (idle)"),
    ("query", ["query."], "read_scan_p50_us, read_stmts_per_s",
     "hot_reads", "ingest_degrade"),
    ("util", ["morsel.", "cursor.", "proc.threads_peak"],
     "read_scan_tail_us; proc.threads_peak on mixed_cold",
     "hot_reads", "ingest_degrade"),
    ("storage", ["storage."], "read_point_p50_us, read_scan_p50_us",
     "mixed_cold", "hot_reads (hit rate ~1)"),
    ("db/txn", ["db.", "gen.", "txn.", "degrade.lock_abort_frac"],
     "commit_tail_us, degrade_lateness_tail_ms", "mixed_cold", "hot_reads"),
    ("wal/io", ["wal.", "io."], "commit_p50_us", "ingest_degrade", "hot_reads"),
    ("degrade", ["degrade."], "degrade_lateness_p50_ms, degrade_values_per_s",
     "ingest_degrade", "hot_reads"),
    ("maintain", ["maintain.", "proc.rss_growth_mb_per_min"],
     "commit_tail_us, degrade_lateness_tail_ms, peak_rss_mb",
     "ingest_degrade", "hot_reads"),
    ("self time", ["self.", "trace.spans"],
     "busy time of each module's spans minus their children", "-", "-"),
]


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def layer_of(name):
    for module, prefixes, *_ in LAYERS:
        if any(name == p or name.startswith(p) for p in prefixes):
            return module
    return "other"


def load(workload):
    runs = {"0": [], "1": []}
    for path in sorted(glob.glob(os.path.join(build_dir(), "results", f"{workload}-seed*-trace*.json"))):
        with open(path) as f:
            result = json.load(f)
        runs["1" if result["info"].get("trace") else "0"].append(result)
    return runs


def fmt(v):
    return f"{v:.4g}" if isinstance(v, (int, float)) and v == v else "-"


def report(workloads, bounds):
    for workload in workloads:
        runs = load(workload)
        plain, traced = runs["0"], runs["1"]
        if not plain and not traced:
            continue
        print(f"\n=== {workload}: {len(plain)} untraced, {len(traced)} traced runs")
        bad = [r["info"].get("seed") for r in plain + traced if not r["correct"] or r["failed"]]
        if bad:
            print(f"!! runs with failed gates or operations, seeds: {bad}")
        if plain:
            meta = plain[0]["info"]
            print(f"   {meta.get('build_type')} {meta.get('compiler')}, nproc {meta.get('nproc')}, "
                  f"git {meta.get('git_sha', '?')[:12]}, {meta.get('flush_policy')}")
        print(f"   {'end-to-end metric':28} {'median':>12} {'spread':>7} {'bound':>6}"
              f" {'traced':>12} {'overhead':>9}")
        names = list((plain or traced)[0]["end_to_end"].keys())
        for name in names:
            vals = [r["end_to_end"][name]["value"] for r in plain]
            tvals = [r["end_to_end"][name]["value"] for r in traced]
            med = statistics.median(vals) if vals else float("nan")
            tmed = statistics.median(tvals) if tvals else float("nan")
            over = (tmed / med - 1) * 100 if vals and tvals and med else float("nan")
            unit = (plain or traced)[0]["end_to_end"][name]["unit"]
            print(f"   {name + ' (' + unit + ')':28} {fmt(med):>12} {fmt(spread(vals)):>7}"
                  f" {fmt(bounds.get(name, float('nan'))):>6} {fmt(tmed):>12}"
                  f" {fmt(over) + '%' if over == over else '-':>9}")
        if traced:
            print(f"   {'per-layer metric (traced)':44} {'median':>12} {'spread':>7}  layer")
            for name, entry in traced[0]["per_layer"].items():
                vals = [r["per_layer"][name]["value"] for r in traced]
                print(f"   {name + ' (' + entry['unit'] + ')':44} {fmt(statistics.median(vals)):>12}"
                      f" {fmt(spread(vals)):>7}  {layer_of(name)}")
    print("\n=== what each layer metric should move")
    for module, prefixes, moves, most, little in LAYERS:
        print(f"   {module:9} {', '.join(prefixes)}\n             moves: {moves}; "
              f"most work in {most}, little in {little}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", action="store_true", help="run the benchmark first")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10", type=seeds_arg)
    parser.add_argument("--trace", choices=["0", "1", "both"], default="both")
    parser.add_argument("--seconds", type=int, default=0, help="default: BENCHMARK.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.run:
        traces = ["0", "1"] if args.trace == "both" else [args.trace]
        seconds = str(args.seconds or bench["run_seconds"])
        for workload in workloads:
            for seed in args.seeds:
                for trace in traces:
                    out = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                         "--seed", str(seed), "--seconds", seconds, "--trace", trace],
                        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
                    print(f"ran {workload} seed {seed} trace {trace}: exit {out.returncode}",
                          file=sys.stderr, flush=True)
    report(workloads, bounds)


if __name__ == "__main__":
    main()
