#!/usr/bin/env python3
"""Fail unless the counts of a `ledger trace` run equal the committed baseline.

usage: ledger trace --seed 2009 --workload W | trace_counts.py BASELINE.json

These per-layer metrics repeat exactly per seed on any hardware, so unlike
the timings they can fail a build. A change that moves one on purpose
re-records the baseline and says why.
"""
import json
import sys

# Counts a PR moved on purpose while it could not edit the ledger directory,
# where the baseline lives: {metric: {workload: value}}. Until the next
# `benchmark` PR re-records `baseline-trace-seed2009.json` and deletes this
# table, each must equal the value here, and the value here must be below
# the baseline's (so a re-recorded baseline fails the table, not the build).
#
# PR 19, `skyline.dominance_checks`: `find_dominator` scans the shortest of
# the per-axis / sum candidate prefixes instead of the whole descending-sum
# order. (`mutate_mix` and `interactive` are not listed: a 64-member skyline
# never grows an index, so their 13 119 checks did not move.)
#
# PR 20, `shard.skipped_per_match`: the counter's subject is gone. A K-shard
# evaluation is the engine's SB run over the union of the shards' skylines;
# no shard is probed, so none is skipped, on any workload.
# (CI traces `batch_indep` and `mutate_mix`.)
#
# `rtree.disk_writes_per_mutation`, since a mutation became one tree epoch:
# a page the mutation itself allocated is rewritten in place, and a page it
# supersedes leaves the buffer pool's count until it publishes, so fewer
# dirty pages are evicted (written) per mutation on every workload.
WORKLOADS = ["batch_indep", "batch_anti", "sharded_k4", "interactive", "mutate_mix"]
RERECORDED = {
    "skyline.dominance_checks": {
        "batch_indep": 463718,
        "sharded_k4": 463718,
        "batch_anti": 8832134,
    },
    "shard.skipped_per_match": dict.fromkeys(WORKLOADS, 0),
    "rtree.disk_writes_per_mutation": {
        "batch_indep": 2.662109375,
        "sharded_k4": 2.662109375,
        "batch_anti": 2.58984375,
        "interactive": 3.197265625,
        "mutate_mix": 3.197265625,
    },
}

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
for name, values in RERECORDED.items():
    for workload, value in values.items():
        baseline = want[workload][name]
        if value >= baseline["value"]:
            sys.exit(f"{workload}: re-recorded {name} {value} is not below the baseline's {baseline['value']}")
        baseline["value"] = value
moved = [
    f"{workload}: {name} = {run[name]['value']}, baseline {want[workload][name]['value']}"
    for workload, run in got.items()
    for name in COUNTS
    if run[name]["value"] != want[workload][name]["value"]
]
print("\n".join(moved) or f"{len(COUNTS)} counts equal the baseline on {', '.join(got)}")
sys.exit(bool(moved) or not got)
