package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"sealdb/internal/lsm"
)

// smallParams sizes a workload for tests: 2,000 records, a few thousand
// operations, still past several flushes and compactions.
func smallParams(t *testing.T, name string, seed int64) params {
	t.Helper()
	sp := findSpec(name)
	if sp == nil {
		t.Fatalf("no workload %q", name)
	}
	ops := map[string]int{"put_random": 6000, "get_zipf": 20000, "scan_short": 3000, "tcp_hot_mixed": 4000, "vlog_mixed": 10000}[name]
	return params{sp: sp, seed: seed, records: 2000, ops: ops, warmup: 500}
}

func mustPass(t *testing.T, p params, traced bool, wrap func(kvStore) kvStore) *pass {
	t.Helper()
	ps, err := runPass(p, 1, traced, wrap)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// wallClock lists the c-source metrics that are host measurements and
// so may differ between two runs of one seed.
func wallClock(name string) bool {
	return strings.HasPrefix(name, "host.") || name == "lsm.reopen_ms" ||
		strings.HasPrefix(name, "server.") || strings.HasPrefix(name, "sealclient.")
}

// TestDeterminism: two runs of a single-client workload with one seed
// agree bit for bit on every device-clock metric, on smr.awa and on
// every counter-sourced layer metric; a traced run agrees with them
// too; another seed gives another op stream.
func TestDeterminism(t *testing.T) {
	for _, sp := range specs {
		if sp.clients > 1 {
			continue
		}
		t.Run(sp.name, func(t *testing.T) {
			p := smallParams(t, sp.name, 7)
			a, b := mustPass(t, p, false, nil), mustPass(t, p, false, nil)
			if a.failed != 0 || a.awa != 1 {
				t.Fatalf("failed ops %d, awa %v", a.failed, a.awa)
			}
			ea, eb := endToEnd(a), endToEnd(b)
			for _, name := range deterministic {
				if ea[name] != eb[name] || ea[name] == 0 {
					t.Errorf("%s: %v then %v", name, ea[name], eb[name])
				}
			}
			if d := ea["host_allocs_per_op"]/eb["host_allocs_per_op"] - 1; d > 1e-3 || d < -1e-3 {
				t.Errorf("host_allocs_per_op: %v then %v", ea["host_allocs_per_op"], eb["host_allocs_per_op"])
			}
			ca, cb := map[string]float64{}, map[string]float64{}
			counterLayer(a, ca)
			counterLayer(b, cb)
			for name, v := range ca {
				if !wallClock(name) && v != cb[name] {
					t.Errorf("%s: %v then %v", name, v, cb[name])
				}
			}
			if diff := tracingChanged(a, mustPass(t, p, true, nil)); diff != "" {
				t.Errorf("tracing changed a device-clock number: %s", diff)
			}

			p.seed = 8
			other := makeInputs(p.sp, p.seed, p.records, p.ops, p.warmup)
			same := makeInputs(p.sp, 7, p.records, p.ops, p.warmup)
			if reflect.DeepEqual(other.streams, same.streams) {
				t.Error("seeds 7 and 8 gave the same op stream")
			}
			if again := makeInputs(p.sp, 7, p.records, p.ops, p.warmup); !reflect.DeepEqual(again, same) {
				t.Error("seed 7 gave two different inputs")
			}
		})
	}
}

// faultyStore plants faults in what a store returns.
type faultyStore struct {
	kvStore
	gets  int
	every int
	fault func(v []byte, err error) ([]byte, error)
}

func (f *faultyStore) Get(key []byte) ([]byte, error) {
	v, err := f.kvStore.Get(key)
	if f.gets++; f.gets%f.every == 0 {
		return f.fault(v, err)
	}
	return v, err
}

// TestFailureCounterBites: a store that corrupts, loses or serves stale
// values is caught, and every fault counts as one failed operation.
func TestFailureCounterBites(t *testing.T) {
	stale := putValue(make([]byte, valueSize), 0, 99)
	faults := map[string]func(v []byte, err error) ([]byte, error){
		"flipped header byte": func(v []byte, err error) ([]byte, error) { v[3] ^= 1; return v, err },
		"truncated value":     func(v []byte, err error) ([]byte, error) { return v[:len(v)-1], err },
		"lost key":            func([]byte, error) ([]byte, error) { return nil, lsm.ErrNotFound },
		"other version":       func(v []byte, err error) ([]byte, error) { copy(v[8:16], stale[8:16]); return v, err },
		"device error":        func([]byte, error) ([]byte, error) { return nil, lsm.ErrCorruptBlock },
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			p := smallParams(t, "get_zipf", 3)
			p.warmup = 0
			const every = 100
			ps := mustPass(t, p, false, func(st kvStore) kvStore {
				return &faultyStore{kvStore: st, every: every, fault: fault}
			})
			if want := p.ops / every; ps.failed != want {
				t.Errorf("failed = %d, want %d of %d gets", ps.failed, want, p.ops)
			}
			if res := newResult(ps, endToEndDefs, endToEnd(ps)); res.Correct || res.Failed != ps.failed || res.Attempted != p.ops+verifyKeys {
				t.Errorf("result %+v does not report the failures", res)
			}
		})
	}
	if ps := mustPass(t, smallParams(t, "get_zipf", 3), false, nil); ps.failed != 0 {
		t.Errorf("an honest store failed %d operations", ps.failed)
	}
}

// TestValueBody: the post-reopen check reads every byte of a value.
func TestValueBody(t *testing.T) {
	v := putValue(make([]byte, valueSize), 12, 5)
	if ver, ok := valueVersion(v, 12); !ok || ver != 5 || !valueIntact(v, 12) {
		t.Fatalf("fresh value rejected: version %d ok %v", ver, ok)
	}
	if _, ok := valueVersion(v, 13); ok {
		t.Error("value accepted under another key")
	}
	v[valueSize-1] ^= 0x80
	if valueIntact(v, 12) {
		t.Error("flipped body byte not detected")
	}
}

// TestTCPWorkload: the two-client workload runs clean over loopback.
func TestTCPWorkload(t *testing.T) {
	ps := mustPass(t, smallParams(t, "tcp_hot_mixed", 5), false, nil)
	if ps.failed != 0 || ps.awa != 1 {
		t.Fatalf("failed ops %d, awa %v", ps.failed, ps.awa)
	}
	for name, v := range endToEnd(ps) {
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric: the traced run fills exactly the
// per-layer table, writes a span file that decodes, and is correct.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, name := range []string{"scan_short", "tcp_hot_mixed", "vlog_mixed"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spans.bin")
			p := smallParams(t, name, 2)
			res, extra, err := runTraced(p, path)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("incorrect run: %+v %v", res, extra)
			}
			if len(res.Metrics) != len(perLayerDefs) {
				t.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(perLayerDefs))
			}
			if res.Metrics["smr.awa"].Value != 1 || res.Metrics["trace.overhead_share"].Value <= 0 {
				t.Errorf("awa %v, overhead share %v", res.Metrics["smr.awa"], res.Metrics["trace.overhead_share"])
			}
			home := map[string]string{"scan_short": "lsm.scan_wall_p50_us", "tcp_hot_mixed": "sealclient.overhead_us_per_op", "vlog_mixed": "vlog.reads_per_get"}[name]
			if res.Metrics[home].Value <= 0 {
				t.Errorf("%s = %v on its home workload", home, res.Metrics[home].Value)
			}
			var out bytes.Buffer
			if err := decodeSpans(path, 50, &out); err != nil {
				t.Fatal(err)
			}
			if lines := strings.Count(out.String(), "\n"); lines != 51 {
				t.Errorf("decoded %d lines, want header + 50 spans", lines)
			}
			if spans := extra["spans"].(int); spans <= p.ops*p.sp.clients {
				t.Errorf("%d spans for %d ops: no drive spans", spans, p.ops*p.sp.clients)
			}
		})
	}
}

// TestSpread pins the quartile rule to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpread(t *testing.T) {
	if got := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest: the checked-in BENCHMARK.json is the one this binary
// prints, and it stays inside the driver's limits.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash benchmark/run.sh -print-benchmark-json > BENCHMARK.json`")
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(want.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != 5 || len(m.EndToEnd) != 9 || len(m.PerLayer) > 128 || want.Len() > 64<<10 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics, %d bytes", len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), want.Len())
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && (!unitRE.MatchString(unit) || (better != higher && better != lower)) {
			t.Errorf("%s: bad unit %q or direction %q", name, unit, better)
		}
	}
	for _, w := range m.Workloads {
		check(w.Name, "", "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		check(e.Name, e.Unit, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, l := range m.PerLayer {
		check(l.Name, l.Unit, l.Better)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", m.RunSeconds, defaultSeconds)
	}
}
