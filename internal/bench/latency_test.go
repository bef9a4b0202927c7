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

func TestGCAblation(t *testing.T) {
	o := QuickOptions()
	o.LoadMB = 16 // more churn, more fragments
	res := mustRun(t, o, "gc").GC
	if res.SetsMoved > 0 {
		if res.FragmentsAfter >= res.FragmentsBefore {
			t.Errorf("GC did not reduce fragments: %d -> %d",
				res.FragmentsBefore, res.FragmentsAfter)
		}
		if res.GCTime <= 0 {
			t.Error("GC consumed no simulated time")
		}
	}
}
