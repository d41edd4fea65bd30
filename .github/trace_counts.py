#!/usr/bin/env python3
"""Fail unless the counts of a `ledger trace` run equal the committed baseline.

usage: ledger trace --seed 2009 --workload W | trace_counts.py BASELINE.json

These per-layer metrics repeat exactly per seed on any hardware, so unlike
the timings they can fail a build. A change that moves one on purpose
re-records the baseline and says why.
"""
import json
import sys

COUNTS = """
rtree.pages rtree.top1_node_reads rtree.logical_reads rtree.physical_reads
skyline.size skyline.nodes_expanded skyline.dominance_checks
sb.loops sb.rtop1_calls bf.top1_searches chain.top1_searches
shard.skipped_per_match
rtree.disk_writes_per_mutation wal.fsyncs_per_mutation wal.bytes_per_record
""".split()


def layers(document):
    return {w["name"]: w["per_layer"] for w in document["workloads"]}


want = layers(json.load(open(sys.argv[1])))
got = layers(json.loads(sys.stdin.read().strip().splitlines()[-1]))
moved = [
    f"{workload}: {name} = {run[name]['value']}, baseline {want[workload][name]['value']}"
    for workload, run in got.items()
    for name in COUNTS
    if run[name]["value"] != want[workload][name]["value"]
]
print("\n".join(moved) or f"{len(COUNTS)} counts equal the baseline on {', '.join(got)}")
sys.exit(bool(moved) or not got)
