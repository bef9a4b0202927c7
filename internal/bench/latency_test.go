package bench

import "testing"

func TestLatencyProfileShapes(t *testing.T) {
	o := QuickOptions()
	o.Ops = 400
	rows := mustRun(t, o, "latency").Latency
	byStore := map[string]LatencyRow{}
	for _, r := range rows {
		byStore[r.Store] = r
	}
	ldb, seal := byStore["leveldb"], byStore["sealdb"]
	if ldb.Reads.Count == 0 || ldb.Writes.Count == 0 {
		t.Fatal("no samples")
	}
	// The paper's §II-C point: LevelDB-on-SMR writes stall behind
	// band cleaning; SEALDB's mean write latency must be lower.
	if seal.Writes.Mean() >= ldb.Writes.Mean() {
		t.Errorf("mean write latency: sealdb %v >= leveldb %v",
			seal.Writes.Mean(), ldb.Writes.Mean())
	}
}
