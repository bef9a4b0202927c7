#!/usr/bin/env bash
# Regenerates BENCH_device.json (or the file named by $1): the
# device-clock metrics of the four single-client benchmark workloads at
# seed 1, --seconds 1. Each workload runs twice: untraced, for the
# end-to-end columns, and with --trace 1, for the per-layer device
# ledger (stall, put, get and scan device percentiles, compaction time
# and bytes, platter reads and seeks per op, the dynamic-band free list,
# value-log GC and the drive's AWA). The device-clock columns repeat bit
# for bit, so CI compares them exactly against the checked-in file, and
# the two host-side figures closely: host_allocs_per_op repeats to the
# last few allocations of the runtime (within 0.5 %),
# host_alloc_kb_per_op to a recycled table buffer or two (within 2 %).
# Any drift is a behaviour change CHANGES.md must name.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${1:-$root/BENCH_device.json}
for w in put_random get_zipf scan_short vlog_mixed; do
  echo "$w"
  bash "$root/benchmark/run.sh" --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1
  bash "$root/benchmark/run.sh" --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1
done | python3 -c '
import json, sys
lines = sys.stdin.read().split("\n")
rows = {}
for name, plain, traced in zip(lines[0::3], lines[1::3], lines[2::3]):
    row = {}
    for line, columns in ((plain, ("dev_ops_per_s", "write_amp", "space_amp", "host_allocs_per_op", "host_alloc_kb_per_op")),
                          (traced, ("lsm.stall_dev_max_ms", "lsm.put_dev_p999_us", "lsm.get_dev_p99_us", "lsm.scan_dev_p99_us",
                                    "lsm.compaction_dev_max_ms", "lsm.compaction_write_mb",
                                    "platter.seeks_per_op", "platter.read_ops_per_op", "platter.read_kb_per_op",
                                    "dband.holes", "dband.frag_index", "vlog.gc_rewritten_mb", "smr.awa"))):
        r = json.loads(line)
        assert r["correct"] and r["failed"] == 0, (name, r["correct"], r["failed"])
        row.update({m: r["metrics"][m]["value"] for m in columns})
    rows[name] = row
doc = {"schema": "sealdb-bench-device/v2", "seed": 1, "seconds": 1, "workloads": rows}
open(sys.argv[1], "w").write(json.dumps(doc, indent=1) + "\n")
' "$out"
