package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sealdb/internal/kv"
)

// modelOpKind enumerates the operations of the random schedule.
type modelOpKind int

const (
	modelNop modelOpKind = iota // a draw whose precondition did not hold
	modelPut
	modelDelete
	modelBatch
	modelGet
	modelScan
	modelSnapshot
	modelSnapCheck // probe a held snapshot, then release it
	modelCompact
	modelReopen
)

// modelMut is one mutation: a put or (del) a delete.
type modelMut struct {
	k, v string
	del  bool
}

// modelOp is one step of the schedule. Put, delete, get and scan use
// k (and v); a batch carries muts; a snapshot check names which held
// snapshot (snap) to probe with which keys.
type modelOp struct {
	kind modelOpKind
	k, v string
	muts []modelMut
	snap int
	keys []string
}

// modelGen generates the random schedule of puts, deletes, batches,
// gets, scans, snapshots, reopens and manual compactions.
// It is a pure function of its seed — it tracks how many snapshots
// the schedule holds itself — so the same stream can be replayed
// against any number of stores.
type modelGen struct {
	rng   *rand.Rand
	step  int
	snaps int
}

func newModelGen(seed int64) *modelGen {
	return &modelGen{rng: rand.New(rand.NewSource(seed))}
}

func (g *modelGen) key() string { return fmt.Sprintf("mk%06d", g.rng.Intn(3000)) }

func (g *modelGen) next() modelOp {
	step := g.step
	g.step++
	switch op := g.rng.Intn(100); {
	case op < 45:
		k := g.key()
		return modelOp{kind: modelPut, k: k, v: fmt.Sprintf("v%d-%d", step, g.rng.Int63())}
	case op < 55:
		return modelOp{kind: modelDelete, k: g.key()}
	case op < 62: // batch of mixed ops
		var muts []modelMut
		for i := 0; i < 1+g.rng.Intn(20); i++ {
			k := g.key()
			if g.rng.Intn(4) == 0 {
				muts = append(muts, modelMut{k: k, del: true})
			} else {
				muts = append(muts, modelMut{k: k, v: fmt.Sprintf("b%d-%d", step, i)})
			}
		}
		return modelOp{kind: modelBatch, muts: muts}
	case op < 80:
		return modelOp{kind: modelGet, k: g.key()}
	case op < 85:
		return modelOp{kind: modelScan, k: g.key()}
	case op < 88:
		if g.snaps < 3 {
			g.snaps++
			return modelOp{kind: modelSnapshot}
		}
	case op < 92:
		if g.snaps > 0 {
			o := modelOp{kind: modelSnapCheck, snap: g.rng.Intn(g.snaps)}
			for j := 0; j < 5; j++ {
				o.keys = append(o.keys, g.key())
			}
			g.snaps--
			return o
		}
	case op < 96:
		return modelOp{kind: modelCompact}
	default: // drops snapshots, which do not survive restarts
		g.snaps = 0
		return modelOp{kind: modelReopen}
	}
	return modelOp{kind: modelNop}
}

// hotOp is the step's operation on a hot set of eight of the schedule's
// keys, outside the generator's stream: five reads to a write, the value
// large enough to be cached as a row where it is stored inline. The keys
// earn rows between two flushes, and every flush and compaction that
// carries them re-homes those rows (DESIGN.md §sstable.Cache), so a row
// that answered for the wrong table or version would show as a wrong Get.
func hotOp(step int) modelOp {
	op := modelOp{kind: modelGet, k: fmt.Sprintf("mk%06d", step%8*375)}
	if step%6 == 0 {
		op.kind, op.v = modelPut, fmt.Sprintf("h%d%s", step, strings.Repeat(".", 600))
	}
	return op
}

// batch builds the engine batch of a modelBatch op.
func (o modelOp) batch() *Batch {
	b := NewBatch()
	for _, m := range o.muts {
		if m.del {
			b.Delete([]byte(m.k))
		} else {
			b.Put([]byte(m.k), []byte(m.v))
		}
	}
	return b
}

// TestModelBasedRandomOps drives a long random schedule of puts,
// deletes, batches, gets, scans, snapshots, reopens and manual
// compactions against a map-based model, across every mode. This is the repository's main
// metamorphic/stress test.
func TestModelBasedRandomOps(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			testModelBasedRandomOps(t, mode)
		})
	}
}

func testModelBasedRandomOps(t *testing.T, mode Mode) {
	cfg := tinyConfig(mode)
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()

	gen := newModelGen(int64(mode)*977 + 5)
	model := map[string]string{}
	type snap struct {
		s     *Snapshot
		state map[string]string
	}
	var snaps []snap

	var rehomed int64 // rows re-homed, summed over reopens
	run := func(step int, op modelOp) {
		switch op.kind {
		case modelPut:
			if err := d.Put([]byte(op.k), []byte(op.v)); err != nil {
				t.Fatalf("step %d put: %v", step, err)
			}
			model[op.k] = op.v
		case modelDelete:
			if err := d.Delete([]byte(op.k)); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			delete(model, op.k)
		case modelBatch:
			if err := d.Apply(op.batch()); err != nil {
				t.Fatalf("step %d batch: %v", step, err)
			}
			for _, m := range op.muts {
				if m.del {
					delete(model, m.k)
				} else {
					model[m.k] = m.v
				}
			}
		case modelGet:
			k := op.k
			got, err := d.Get([]byte(k))
			want, ok := model[k]
			if ok {
				if err != nil || string(got) != want {
					t.Fatalf("step %d get(%q) = (%q, %v), want %q", step, k, got, err, want)
				}
			} else if err != ErrNotFound {
				t.Fatalf("step %d get(%q) = (%q, %v), want ErrNotFound", step, k, got, err)
			}
		case modelScan: // short scan vs model
			start := op.k
			got, err := d.Scan([]byte(start), 10)
			if err != nil {
				t.Fatalf("step %d scan: %v", step, err)
			}
			var keys []string
			for k := range model {
				if k >= start {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			if len(keys) > 10 {
				keys = keys[:10]
			}
			if len(got) != len(keys) {
				t.Fatalf("step %d scan(%q): %d results, want %d", step, start, len(got), len(keys))
			}
			for i := range got {
				if string(got[i].Key) != keys[i] || string(got[i].Value) != model[keys[i]] {
					t.Fatalf("step %d scan(%q)[%d] = %q, want %q", step, start, i, got[i].Key, keys[i])
				}
			}
		case modelSnapshot:
			st := make(map[string]string, len(model))
			for k, v := range model {
				st[k] = v
			}
			snaps = append(snaps, snap{s: d.NewSnapshot(), state: st})
		case modelSnapCheck:
			sn := snaps[op.snap]
			for _, k := range op.keys {
				got, err := d.GetAt([]byte(k), sn.s)
				want, ok := sn.state[k]
				if ok && (err != nil || string(got) != want) {
					t.Fatalf("step %d snapshot get(%q) = (%q, %v), want %q", step, k, got, err, want)
				}
				if !ok && err != ErrNotFound {
					t.Fatalf("step %d snapshot get(%q) err = %v, want ErrNotFound", step, k, err)
				}
			}
			sn.s.Release()
			snaps = append(snaps[:op.snap], snaps[op.snap+1:]...)
		case modelCompact:
			if err := d.CompactRange(nil, nil); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}
		case modelReopen:
			for _, sn := range snaps {
				sn.s.Release()
			}
			snaps = nil
			rehomed += d.cache.Stats().RowsRehomed
			dev := d.Device()
			if err := d.Close(); err != nil {
				t.Fatalf("step %d close: %v", step, err)
			}
			d, err = OpenDevice(cfg, dev)
			if err != nil {
				t.Fatalf("step %d reopen: %v", step, err)
			}
		}
	}
	const steps = 6000
	for step := 0; step < steps; step++ {
		run(step, hotOp(step))
		run(step, gen.next())
	}
	if rehomed += d.cache.Stats().RowsRehomed; rehomed == 0 {
		t.Error("no flush or compaction re-homed a row of the hot set")
	}

	// Final sweep: every model key readable, every absent prefix miss,
	// full iterator agrees with the model, integrity holds.
	for k, v := range model {
		got, err := d.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("final get(%q) = (%q, %v), want %q", k, got, err, v)
		}
	}
	it := d.NewIterator()
	defer it.Close()
	var keys []string
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if i >= len(keys) || string(it.Key()) != keys[i] {
			t.Fatalf("final iterator position %d: %q", i, it.Key())
		}
		if !bytes.Equal(it.Value(), []byte(model[keys[i]])) {
			t.Fatalf("final iterator value mismatch at %q", keys[i])
		}
		i++
	}
	if i != len(keys) {
		t.Fatalf("final iterator saw %d keys, want %d", i, len(keys))
	}
	if err := d.VerifyIntegrity(); err != nil {
		t.Fatalf("final integrity: %v", err)
	}
	if mode == ModeSEALDB {
		if amp := d.Amplification(); amp.AWA != 1.0 {
			t.Fatalf("final AWA = %v", amp.AWA)
		}
	}
}

// TestIteratorSnapshotStability: an iterator's view must not change
// while writes land underneath it.
func TestIteratorSnapshotStability(t *testing.T) {
	d, err := Open(tinyConfig(ModeSEALDB))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 500; i++ {
		d.Put([]byte(fmt.Sprintf("s%04d", i)), []byte(fmt.Sprintf("old%d", i)))
	}
	it := d.NewIterator()
	defer it.Close()
	it.SeekToFirst()
	// Mutate heavily while iterating.
	count := 0
	for it.Valid() {
		if count%10 == 0 {
			k := fmt.Sprintf("s%04d", count)
			d.Put([]byte(k), []byte("NEW"))
			d.Delete([]byte(fmt.Sprintf("s%04d", count+1)))
			d.Put([]byte(fmt.Sprintf("zz%04d", count)), []byte("late")) // past the cursor but > snapshot
		}
		if string(it.Value()) == "NEW" {
			t.Fatalf("iterator saw a write made after its snapshot at %q", it.Key())
		}
		if bytes.HasPrefix(it.Key(), []byte("zz")) {
			t.Fatalf("iterator saw key %q inserted after its snapshot", it.Key())
		}
		count++
		it.Next()
	}
	if err := it.Error(); err != nil {
		t.Fatal(err)
	}
	if count != 500 {
		t.Fatalf("iterator saw %d keys, want the original 500", count)
	}
}

// TestCrossModeDifferential replays one random schedule through all
// four modes, each with values stored inline and with key–value
// separation, and requires identical visible state from every store:
// every Get, GetAt(snapshot), Scan and ScanReverse along the way, the
// full forward and reverse scans at the end, and a clean
// VerifyIntegrity. The layouts differ as much as the engine allows —
// sorted levels, SMRDB's overlapped level, sets, pointer and inline
// values — so it exercises the one lookup and the one commit path
// through all of them in one place.
func TestCrossModeDifferential(t *testing.T) {
	type store struct {
		name  string
		cfg   Config
		d     *DB
		snaps []*Snapshot
		// Value-cache hits and admissions, rows, rows re-homed and
		// everything found cached, summed over reopens.
		hits, admitted, rows, rehomed, resident int64
	}
	tally := func(s *store) {
		st := s.d.cache.Stats()
		s.hits += s.d.metrics.vlogCacheHits.Value()
		s.admitted += int64(st.ValueEntries)
		s.rows += int64(st.RowEntries)
		s.rehomed += st.RowsRehomed
		s.resident += int64(st.Entries)
	}
	var stores []*store
	for _, mode := range allModes() {
		// Values inline and separated, each with the default cache and
		// with one too small to admit a block, a row or a value: every
		// read of the second and fourth arm goes to the media, the first
		// serves large inline values from rows, the third separated ones
		// from the value cache.
		for arm, vlog := range []bool{false, false, true, true} {
			cfg, name := tinyConfig(mode), mode.String()
			if mode == ModeSMRDB {
				// Small bands (hence tables) and the tightest legal
				// fan-in cap leave SMRDB's overlapped level holding
				// several versions of a key across files.
				cfg.BandSize = 16 * kv.KiB
				cfg.MaxCompactionFiles = 2
			}
			if vlog {
				// Put values ("v<step>-<int63>") separate; the short
				// batch values stay inline.
				cfg.ValueThreshold = 20
				cfg.VlogSegSize = 4 * kv.KiB
				name += "+vlog"
			}
			if arm%2 == 1 {
				cfg.BlockCacheSize = 64
				name += "-cache"
			}
			d, err := Open(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			s := &store{name: name, cfg: cfg, d: d}
			defer func() { s.d.Close() }()
			stores = append(stores, s)
		}
	}

	showKVs := func(kvs []KV, err error) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "%v:", err)
		for _, e := range kvs {
			fmt.Fprintf(&sb, " %s=%s", e.Key, e.Value)
		}
		return sb.String()
	}
	// apply runs op on one store and returns what a client could see.
	apply := func(s *store, step int, op modelOp) string {
		var err error
		switch op.kind {
		case modelPut:
			// Every third value is large enough to be cached as a row
			// where it is stored inline.
			v := []byte(op.v)
			if step%3 == 0 {
				v = append(v, bytes.Repeat([]byte{'.'}, 500)...)
			}
			err = s.d.Put([]byte(op.k), v)
		case modelDelete:
			err = s.d.Delete([]byte(op.k))
		case modelBatch:
			err = s.d.Apply(op.batch())
		case modelGet:
			v, err := s.d.Get([]byte(op.k))
			return fmt.Sprintf("%q %v", v, err)
		case modelScan:
			return showKVs(s.d.Scan([]byte(op.k), 10)) + " | " + showKVs(s.d.ScanReverse([]byte(op.k), 10))
		case modelSnapshot:
			s.snaps = append(s.snaps, s.d.NewSnapshot())
		case modelSnapCheck:
			var sb strings.Builder
			for _, k := range op.keys {
				v, err := s.d.GetAt([]byte(k), s.snaps[op.snap])
				fmt.Fprintf(&sb, "%q %v;", v, err)
			}
			s.snaps[op.snap].Release()
			s.snaps = append(s.snaps[:op.snap], s.snaps[op.snap+1:]...)
			return sb.String()
		case modelCompact:
			// A quarter of the keyspace at a time, so the tree keeps
			// files at several depths instead of settling into one.
			lo := step % 4 * 750
			err = s.d.CompactRange([]byte(fmt.Sprintf("mk%06d", lo)), []byte(fmt.Sprintf("mk%06d", lo+749)))
		case modelReopen:
			for _, sn := range s.snaps {
				sn.Release()
			}
			s.snaps = nil
			tally(s)
			dev := s.d.Device()
			if err = s.d.Close(); err == nil {
				s.d, err = OpenDevice(s.cfg, dev)
			}
		}
		if err != nil {
			t.Fatalf("step %d on %s: %v", step, s.name, err)
		}
		return ""
	}
	agree := func(what string, see func(s *store) string) {
		t.Helper()
		want := see(stores[0])
		for _, s := range stores[1:] {
			if got := see(s); got != want {
				t.Fatalf("%s: %s sees\n  %s\nbut %s sees\n  %s", what, s.name, got, stores[0].name, want)
			}
		}
	}

	gen := newModelGen(4242)
	const steps = 4000
	for step := 0; step < steps; step++ {
		for _, op := range [2]modelOp{hotOp(step), gen.next()} {
			agree(fmt.Sprintf("step %d (%+v)", step, op), func(s *store) string { return apply(s, step, op) })
		}
	}
	agree("final forward scan", func(s *store) string { return showKVs(s.d.Scan(nil, 1<<20)) })
	agree("final reverse scan", func(s *store) string { return showKVs(s.d.ScanReverse(nil, 1<<20)) })
	for _, s := range stores {
		if err := s.d.VerifyIntegrity(); err != nil {
			t.Errorf("%s: VerifyIntegrity: %v", s.name, err)
		}
		// The cached and the uncached arm really took different paths.
		tally(s)
		switch uncached := s.cfg.BlockCacheSize == 64; {
		case uncached && (s.hits != 0 || s.resident != 0):
			t.Errorf("%s: %d value-cache hits, %d entries found cached, want none", s.name, s.hits, s.resident)
		case !uncached && s.cfg.vlogEnabled() && s.hits == 0:
			t.Errorf("%s: no read was served from the value cache", s.name)
		case !uncached && !s.cfg.vlogEnabled() && (s.rows == 0 || s.rehomed == 0):
			t.Errorf("%s: %d large inline values found cached as rows, %d rows re-homed by a table writer; want both", s.name, s.rows, s.rehomed)
		}
	}
}
