#!/usr/bin/env python3
"""Turns a traced e2ebench run into one layer table per workload.

    python3 e2ebench/run.py --workload cold_state --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload cold_state --seed 1 --seconds 20 --trace 1
    python3 e2ebench/layer_table.py --seed 1 cold_state

Reads .bench_out/<workload>.seed<seed>.trace1.json and, when present, the
untraced .trace0.json of the same seed. The rows are the run's per-layer
metrics, which e2e_bench.cc splits from its spans: each node's ExecuteBlock
wall, and the Forerunner node's off-path wall (OnHeard +
RunSpeculationPipeline), as self times per measured block. The `other` rows
are computed there as the wall left over, so every table sums to its wall.
The closing lines compare traced with untraced medians: the tracing overhead.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["l1_mix", "cold_state"]

# Rows of (label, self-time metric, per-layer metrics printed beside it). A
# nested row is part of the rows above it and is not added to their sum.
EXECUTE_BLOCK = [
    ("accelerator.exec", "accelerator.exec_ms", ["evm.mgas", "accelerator.bails"]),
    ("state.commit", "state.commit_ms", ["commit_pool.fold_jobs"]),
    ("other (seal, head advance, retire)", "chain_manager.other_ms", []),
]
STALL = ("  of which trie.stall (cold reads)", "trie.stall_ms",
         ["trie.cold_reads", "state.trie_reads", "state.cache_hits"])
OFFPATH = [
    ("mempool.admit (OnHeard)", "mempool.admit_ms", ["mempool.admit_us"]),
    ("predictor", "predictor.ms", ["predictor.txs", "predictor.futures_per_tx"]),
    ("spec_pool.batch (wait)", "spec_pool.batch_ms",
     ["spec_pool.futures", "spec_pool.cpu_ms", "spec_pool.utilization",
      "speculator.synthesis_failures"]),
    ("spec_manager.merge_prefetch", "spec_manager.merge_prefetch_ms",
     ["spec_manager.root_skips"]),
    ("spec_manager.other (build jobs)", "spec_manager.other_ms", []),
]
OVERHEAD = ["block_ms_p50", "base_block_ms_p50", "offpath_us_per_future", "setup_s"]


def load(workload, seed, trace):
    path = os.path.join(OUT_DIR, "%s.seed%d.trace%d.json" % (workload, seed, trace))
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def print_table(title, layers, prefix, wall_name, rows, nested=None):
    def value(name):
        return layers[prefix + name]["value"]

    def line(label, ms, notes=""):
        print("    %-36s %9.3f %6.1f%%  %s" % (label, ms, ms / wall * 100 if wall > 0 else 0.0,
                                               notes))

    def notes(names):
        return ", ".join("%s %.4g" % (n, value(n)) for n in names if prefix + n in layers)

    wall = value(wall_name)
    print("  %s: %.3f ms per block" % (title, wall))
    print("    %-36s %9s %7s  %s" % ("layer", "self ms", "share", "per-layer metrics"))
    for label, name, shown in rows + ([nested] if nested else []):
        line(label, value(name), notes(shown))
    line("sum of rows", sum(value(name) for _, name, _ in rows))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    status = 0
    for workload in args.workloads:
        traced = load(workload, args.seed, 1)
        if traced is None:
            print("%s: no traced run; run e2ebench/run.py --workload %s --seed %d "
                  "--seconds <s> --trace 1 first" % (workload, workload, args.seed))
            status = 1
            continue
        layers = traced["per_layer"]
        print("%s (seed %d, %d measured blocks, fingerprint %s)" % (
            workload, args.seed, traced["counts"]["blocks"], traced["fingerprint"][:18]))
        for prefix, node in (("", "forerunner"), ("base.", "base")):
            print_table("%s ExecuteBlock" % node, layers, prefix,
                        "chain_manager.execute_block_ms", EXECUTE_BLOCK, STALL)
        print_table("forerunner off-path", layers, "", "offpath.wall_ms", OFFPATH)
        untraced = load(workload, args.seed, 0)
        if untraced is None:
            print("  tracing overhead: no untraced run of seed %d to compare" % args.seed)
        else:
            print("  tracing overhead (traced / untraced medians):")
            for name in OVERHEAD:
                t, u = (run["end_to_end"][name]["value"] for run in (traced, untraced))
                print("    %-22s %10.3f / %10.3f = %.3f" % (name, t, u, t / u if u else 0.0))
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
