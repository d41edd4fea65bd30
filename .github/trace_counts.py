#!/usr/bin/env python3
"""Fail unless the counts of a `ledger trace` run equal the committed baseline.

usage: ledger trace --seed 2009 --workload W | trace_counts.py BASELINE.json

These per-layer metrics repeat exactly per seed on any hardware, so unlike
the timings they can fail a build. A change that moves one on purpose
re-records the baseline and says why.
"""
import json
import sys

# PR 19 moved `skyline.dominance_checks` on purpose (`find_dominator` scans
# the shortest of the per-axis / sum candidate prefixes instead of the whole
# descending-sum order) and may not edit the ledger directory, where the
# baseline lives. Until the next `benchmark` PR re-records
# `baseline-trace-seed2009.json` and deletes this table, that one count must
# equal the value here, and the value here must be below the baseline's.
# (`mutate_mix` and `interactive` are not listed: a 64-member skyline never
# grows an index, so their 13 119 checks did not move and stay held to the
# baseline. CI traces `batch_indep` and `mutate_mix`.)
RERECORDED = {"batch_indep": 463718, "sharded_k4": 463718, "batch_anti": 8832134}

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
for workload, checks in RERECORDED.items():
    baseline = want[workload]["skyline.dominance_checks"]
    if checks >= baseline["value"]:
        sys.exit(f"{workload}: re-recorded {checks} is not below the baseline's {baseline['value']}")
    baseline["value"] = checks
moved = [
    f"{workload}: {name} = {run[name]['value']}, baseline {want[workload][name]['value']}"
    for workload, run in got.items()
    for name in COUNTS
    if run[name]["value"] != want[workload][name]["value"]
]
print("\n".join(moved) or f"{len(COUNTS)} counts equal the baseline on {', '.join(got)}")
sys.exit(bool(moved) or not got)
