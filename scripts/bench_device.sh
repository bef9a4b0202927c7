#!/usr/bin/env bash
# Regenerates BENCH_device.json (or the file named by $1): the
# device-clock metrics of the four single-client benchmark workloads at
# seed 1, --seconds 1, untraced. They repeat bit for bit, so CI compares
# them exactly against the checked-in file, and the two host-side
# figures closely: host_allocs_per_op repeats to the last few
# allocations of the runtime (within 0.5 %), host_alloc_kb_per_op to a
# recycled table buffer or two (within 2 %). Any drift is a behaviour
# change CHANGES.md must name.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${1:-$root/BENCH_device.json}
for w in put_random get_zipf scan_short vlog_mixed; do
  echo "$w"
  bash "$root/benchmark/run.sh" --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1
done | python3 -c '
import json, sys
lines = sys.stdin.read().split("\n")
rows = {}
for name, line in zip(lines[0::2], lines[1::2]):
    r = json.loads(line)
    assert r["correct"] and r["failed"] == 0, (name, r["correct"], r["failed"])
    rows[name] = {m: r["metrics"][m]["value"] for m in
                  ("dev_ops_per_s", "write_amp", "space_amp", "host_allocs_per_op", "host_alloc_kb_per_op")}
doc = {"schema": "sealdb-bench-device/v1", "seed": 1, "seconds": 1, "workloads": rows}
open(sys.argv[1], "w").write(json.dumps(doc, indent=1) + "\n")
' "$out"
