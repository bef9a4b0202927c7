package version

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// newTestSet creates a Set on a fresh device.
func newTestSet(t *testing.T, manifestSize int64) (*Set, Config) {
	t.Helper()
	cfg := Config{Backend: newTestBackend(), ManifestSize: manifestSize}
	s, err := Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg
}

// mustApply logs an edit and returns what it retired.
func mustApply(t *testing.T, s *Set, e *Edit) Retired {
	t.Helper()
	r, err := s.LogAndApply(e)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestVlogSegAccounting drives a segment through its life by edits: the
// manifest learns its length and overhead at the seal, dead bytes are
// clamped to its record bytes however they are charged, and the state a
// recovery rebuilds is the state the edits left.
func TestVlogSegAccounting(t *testing.T) {
	s, cfg := newTestSet(t, 0)
	mustApply(t, s, &Edit{NewVlogSegs: []uint64{5}})
	if vs, ok := s.VlogSeg(5); !ok || vs != (VlogSeg{Num: 5}) {
		t.Fatalf("fresh segment: %+v %v", vs, ok)
	}
	mustApply(t, s, &Edit{SealVlogSegs: []VlogSegRecord{{Num: 5, Bytes: 1100, Overhead: 100}}})
	mustApply(t, s, &Edit{VlogDead: []VlogDeadRecord{{Num: 5, Dead: 600}}})
	vs, _ := s.VlogSeg(5)
	// Header and frames are nobody's live bytes, and stay out of the
	// ratio the collector's threshold is compared with.
	if vs.Live() != 400 || vs.DeadRatio() != 0.6 || !vs.Sealed || vs.Bytes != 1100 || vs.Overhead != 100 {
		t.Fatalf("after seal+dead: %+v", vs)
	}
	// Clamp: dead can never exceed the record bytes even if drops
	// double-report.
	mustApply(t, s, &Edit{VlogDead: []VlogDeadRecord{{Num: 5, Dead: 10_000}}})
	if vs, _ := s.VlogSeg(5); vs.Dead != 1000 || vs.Live() != 0 {
		t.Fatalf("dead not clamped: %+v", vs)
	}
	// The same clamp when the charge came first, to the active segment.
	mustApply(t, s, &Edit{NewVlogSegs: []uint64{9}, VlogDead: []VlogDeadRecord{{Num: 9, Dead: 700}}})
	mustApply(t, s, &Edit{SealVlogSegs: []VlogSegRecord{{Num: 9, Bytes: 500}}})
	if vs, _ := s.VlogSeg(9); !vs.Sealed || vs.Bytes != 500 || vs.Dead != 500 || vs.DeadRatio() != 1 {
		t.Fatalf("sealed under its charged dead bytes: %+v", vs)
	}
	want := s.VlogSegs()
	r, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.VlogSegs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered segments %+v, want %+v", got, want)
	}
	// A dropped segment is gone from the state and reported for reclaim.
	if ret := mustApply(t, r, &Edit{DropVlogSegs: []uint64{5}}); !slices.Equal(ret.Files, []uint64{5}) {
		t.Fatalf("dropping segment 5 retired files %v", ret.Files)
	}
	if got := r.VlogSegs(); len(got) != 1 || got[0].Num != 9 {
		t.Fatalf("segments after drop: %+v", got)
	}
}

// TestVlogDroppedRecords: the records a compaction edit names dropped set
// their bits in the segment's bitmap, which VlogDrops gathers per segment
// in segment order. A bitmap a caller holds never changes, the bits are
// never persisted, a segment recovered from the manifest keeps none, and
// one dies with its segment.
func TestVlogDroppedRecords(t *testing.T) {
	s, cfg := newTestSet(t, 0)
	mustApply(t, s, &Edit{NewVlogSegs: []uint64{5}})
	mustApply(t, s, &Edit{NewVlogSegs: []uint64{9}, SealVlogSegs: []VlogSegRecord{{Num: 5, Bytes: 1 << 20}}})
	var drops VlogDrops
	drops.Add(9, 3, 600)
	drops.Add(5, 1, 500)
	drops.Add(5, 130, 700)
	recs := drops.Records()
	if len(recs) != 2 || recs[0].Num != 5 || recs[0].Dead != 1200 || !slices.Equal(recs[0].Dropped, []uint64{1, 130}) || recs[1].Num != 9 {
		t.Fatalf("drops gathered as %+v", recs)
	}
	held := s.VlogDropped(5)
	mustApply(t, s, &Edit{VlogDead: recs})
	if held.Has(1) {
		t.Fatal("an edit changed a bitmap a caller held")
	}
	b := s.VlogDropped(5)
	for bit := uint64(0); bit < 200; bit++ {
		if want := bit == 1 || bit == 130; b.Has(bit) != want {
			t.Fatalf("segment 5 bit %d = %v, want %v", bit, b.Has(bit), want)
		}
	}
	if !s.VlogDropped(9).Has(3) {
		t.Fatal("segment 9's dropped record has no bit")
	}
	if vs, _ := s.VlogSeg(5); vs.Dead != 1200 {
		t.Fatalf("segment 5 charged %d dead bytes, want 1200", vs.Dead)
	}
	// Dropped with its segment; a late charge to it is ignored.
	mustApply(t, s, &Edit{DropVlogSegs: []uint64{5}})
	mustApply(t, s, &Edit{VlogDead: []VlogDeadRecord{{Num: 5, Dead: 10, Dropped: []uint64{2}}}})
	if s.VlogDropped(5) != nil {
		t.Fatal("a dropped segment kept its bitmap")
	}
	// Not persisted: a recovered segment has no bitmap and takes no bits,
	// though its dead bytes are charged.
	r, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, r, &Edit{VlogDead: []VlogDeadRecord{{Num: 9, Dead: 100, Dropped: []uint64{7}}}})
	if r.VlogDropped(9) != nil {
		t.Fatalf("recovered segment 9 has dropped-record bits %v", r.VlogDropped(9))
	}
	if vs, _ := r.VlogSeg(9); vs.Dead != 700 {
		t.Fatalf("recovered segment 9 charged %d dead bytes, want 700", vs.Dead)
	}
}

// TestVlogVictimSelection: the collector runs only while the sealed
// log's dead record bytes are over the budget's share of its record
// bytes, and then takes the sealed segment before the replay head with
// the highest dead ratio — itself over the budget — lowest number on a
// tie. The sealed totals the budget is checked on are running sums that
// always equal a recount.
func TestVlogVictimSelection(t *testing.T) {
	s, _ := newTestSet(t, 0)
	apply := func(e *Edit) {
		t.Helper()
		mustApply(t, s, e)
		var bytes, overhead, dead int64
		for _, vs := range s.VlogSegs() {
			if dead += vs.Dead; vs.Sealed {
				bytes, overhead = bytes+vs.Bytes, overhead+vs.Overhead
			}
		}
		if b, o, d, n := s.VlogTotals(); b != bytes || o != overhead || d != dead || n != len(s.VlogSegs()) {
			t.Fatalf("totals %d/%d/%d over %d segments, recount %d/%d/%d", b, o, d, n, bytes, overhead, dead)
		}
	}
	head := func(seg uint64) *Edit { return &Edit{HasVlogHead: true, VlogHead: VlogPos{Seg: seg, Off: 8}} }
	apply(head(100))
	// Active segment: never a victim, and its dead bytes are not the
	// sealed log's.
	apply(&Edit{NewVlogSegs: []uint64{1}, VlogDead: []VlogDeadRecord{{Num: 1, Dead: 100}}})
	if v, ok := s.VlogVictim(0.1); ok {
		t.Fatalf("unsealed victim selected: %+v", v)
	}
	// Sealed segments of 900 record bytes each at dead ratios 0.2, 0.7
	// and 0.5: the log's dead share is 1260/2700 = 0.467.
	apply(&Edit{
		SealVlogSegs: []VlogSegRecord{{Num: 2, Bytes: 1000, Overhead: 100}, {Num: 3, Bytes: 1000, Overhead: 100}, {Num: 4, Bytes: 1000, Overhead: 100}},
		VlogDead:     []VlogDeadRecord{{Num: 2, Dead: 180}, {Num: 3, Dead: 630}, {Num: 4, Dead: 450}},
	})
	if v, ok := s.VlogVictim(0.25); !ok || v.Num != 3 {
		t.Fatalf("victim = %+v, %v; want the deadest segment 3", v, ok)
	}
	// Under budget nothing is collected, however dead one segment is.
	if v, ok := s.VlogVictim(0.5); ok {
		t.Fatalf("victim with the log under budget: %+v", v)
	}
	// Deterministic tie-break: equal ratios pick the lowest number.
	apply(&Edit{VlogDead: []VlogDeadRecord{{Num: 4, Dead: 180}}}) // 3 and 4 at 0.7
	if v, ok := s.VlogVictim(0.25); !ok || v.Num != 3 {
		t.Fatalf("tie-break victim = %+v, %v; want segment 3", v, ok)
	}
	// Segments at or past the replay head are never victims, however far
	// over budget the log is; nor is one no deader than the budget, whose
	// collection would raise the log's dead share.
	apply(head(3))
	if v, ok := s.VlogVictim(0.25); ok {
		t.Fatalf("victim at the replay head or under budget: %+v", v)
	}
	apply(&Edit{VlogDead: []VlogDeadRecord{{Num: 2, Dead: 180}}}) // 2 at 0.4
	if v, ok := s.VlogVictim(0.25); !ok || v.Num != 2 {
		t.Fatalf("victim before head 3 = %+v, %v; want segment 2", v, ok)
	}
	apply(&Edit{SealVlogSegs: []VlogSegRecord{{Num: 1, Bytes: 100}}})
	if v, ok := s.VlogVictim(0.25); !ok || v.Num != 1 {
		t.Fatalf("victim before head 3 = %+v, %v; want the wholly dead segment 1", v, ok)
	}
	apply(&Edit{DropVlogSegs: []uint64{1, 2}})
	if bytes, overhead, dead, segs := s.VlogTotals(); bytes != 2000 || overhead != 200 || dead != 1260 || segs != 2 {
		t.Fatalf("totals after the drops: %d bytes, %d overhead, %d dead, %d segments", bytes, overhead, dead, segs)
	}
}

// recountSets counts, per set id, the files of v that name it and their
// bytes.
func recountSets(v *Version) map[uint64]SetInfo {
	live := map[uint64]SetInfo{}
	for l := range v.Files {
		for _, f := range v.Files[l] {
			if f.SetID != 0 {
				n := live[f.SetID]
				n.Live, n.LiveBytes = n.Live+1, n.LiveBytes+f.Size
				live[f.SetID] = n
			}
		}
	}
	return live
}

// TestSetLiveCountsFollowEdits drives random flush, compaction,
// trivial-move and relocation edits, with and without grouped outputs,
// and checks after each one that the state's per-set live count and bytes
// are a recount of the current version's SetIDs, that the edit dropped exactly
// the sets it emptied — in the edit that deleted their last member, so no
// memberless set ever stands — and reported them with the files it
// retired; and at the end that recovery from the manifest (rotated
// several times on the way) arrives at the same sets.
func TestSetLiveCountsFollowEdits(t *testing.T) {
	for _, grouped := range []bool{true, false} {
		rng := rand.New(rand.NewSource(23))
		s, cfg := newTestSet(t, 16<<10)
		first := s.ManifestNum()
		newMeta := func(setID uint64) *FileMeta {
			lo := rng.Intn(100000)
			m := meta(s.NewFileNum(), key(lo), key(lo+rng.Intn(5)))
			m.SetID, m.Size = setID, int64(1+rng.Intn(4096))
			return m
		}
		// addSet appends n fresh files at level to e, as one set when grouped.
		addSet := func(e *Edit, level, n int, from []*FileMeta) {
			var id uint64
			for i := 0; i < n; i++ {
				m := newMeta(0)
				if from != nil {
					m.Smallest, m.Largest = from[i].Smallest, from[i].Largest
				}
				if grouped && i == 0 {
					id = m.Num
					e.NewSets = append(e.NewSets, SetRecord{ID: id, Off: int64(id) << 20, Len: int64(n) << 10, Members: n})
				}
				m.SetID = id
				e.Added = append(e.Added, AddedFile{Level: level, Meta: m})
			}
		}
		levelOf := func(v *Version, num uint64) int {
			for l := range v.Files {
				if slices.ContainsFunc(v.Files[l], func(f *FileMeta) bool { return f.Num == num }) {
					return l
				}
			}
			t.Fatalf("file %d not in the version", num)
			return -1
		}
		dropped := 0
		for step := 0; step < 600; step++ {
			v := s.Current()
			before := s.Sets()
			e := &Edit{}
			var moved *FileMeta
			switch op := rng.Intn(10); {
			case op < 3 || v.TotalFiles() < 6: // flush
				e.Added = []AddedFile{{Level: 0, Meta: newMeta(0)}}
			case op < 7: // compaction: some files of a level and of the next become a new set there
				level := rng.Intn(NumLevels - 1)
				for _, l := range []int{level, level + 1} {
					for _, f := range v.Files[l] {
						if rng.Intn(3) == 0 && len(e.Deleted) < 6 {
							e.Deleted = append(e.Deleted, DeletedFile{Level: l, Num: f.Num})
						}
					}
				}
				addSet(e, level+1, rng.Intn(4), nil)
			case op < 8: // trivial move: one file, deleted and added back a level down
				level := rng.Intn(NumLevels - 1)
				if len(v.Files[level]) == 0 {
					continue
				}
				moved = v.Files[level][rng.Intn(len(v.Files[level]))]
				e.Deleted = []DeletedFile{{Level: level, Num: moved.Num}}
				e.Added = []AddedFile{{Level: level + 1, Meta: moved}}
			default: // relocation: a set's live members, renumbered into a new set, each at its level
				var members []*FileMeta
				for id := range before {
					for l := range v.Files {
						for _, f := range v.Files[l] {
							if f.SetID == id {
								members = append(members, f)
							}
						}
					}
					break
				}
				if len(members) == 0 {
					continue
				}
				addSet(e, 0, len(members), members)
				for i, f := range members {
					e.Added[i].Level = levelOf(v, f.Num)
					e.Deleted = append(e.Deleted, DeletedFile{Level: e.Added[i].Level, Num: f.Num})
				}
			}
			ret := mustApply(t, s, e)

			live := recountSets(s.Current())
			sets := s.Sets()
			for id, set := range sets {
				if n := live[id]; set.Live != n.Live || set.LiveBytes != n.LiveBytes || set.Live == 0 {
					t.Fatalf("grouped %v step %d: set %d counts %d live members in %d bytes, the version holds %d in %d", grouped, step, id, set.Live, set.LiveBytes, n.Live, n.LiveBytes)
				}
			}
			for id := range live {
				if _, ok := sets[id]; !ok {
					t.Fatalf("grouped %v step %d: files name set %d, which has no record", grouped, step, id)
				}
			}
			// Dropped: the sets that stood before, or came with this edit,
			// and stand no more — all of them in this edit's DropSets.
			var want []uint64
			for id := range before {
				if _, ok := sets[id]; !ok {
					want = append(want, id)
				}
			}
			got := slices.Clone(e.DropSets)
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) || len(ret.Sets) != len(want) {
				t.Fatalf("grouped %v step %d: edit drops sets %v and reports %v, the state lost %v", grouped, step, e.DropSets, ret.Sets, want)
			}
			for i, rec := range ret.Sets {
				if rec != before[e.DropSets[i]].SetRecord {
					t.Fatalf("grouped %v step %d: dropped set %d reported as %+v, was %+v", grouped, step, e.DropSets[i], rec, before[e.DropSets[i]].SetRecord)
				}
			}
			dropped += len(want)
			var retired []uint64
			for _, d := range e.Deleted {
				if moved == nil {
					retired = append(retired, d.Num)
				}
			}
			if !slices.Equal(ret.Files, retired) {
				t.Fatalf("grouped %v step %d: edit retired files %v, deleted without adding back %v", grouped, step, ret.Files, retired)
			}
		}
		if s.ManifestNum() == first || grouped != (dropped > 0) {
			t.Fatalf("grouped %v: %d sets dropped, manifest rotated %v: the sequence does not cover what it claims", grouped, dropped, s.ManifestNum() != first)
		}
		r, _, err := Recover(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Sets(), s.Sets(); !reflect.DeepEqual(got, want) {
			t.Fatalf("grouped %v: recovery counts sets %+v, the incremental path %+v", grouped, got, want)
		}
	}
}

// TestRecoveredMemberlessSetIsDroppedByNextEdit: a manifest may hold a
// set whose last member was deleted by an edit that did not drop it
// (written before edits derived their own drops). Recovery keeps it,
// with no live member, and the next edit — any edit — drops and reports
// it.
func TestRecoveredMemberlessSetIsDroppedByNextEdit(t *testing.T) {
	s, cfg := newTestSet(t, 0)
	rec := SetRecord{ID: 7, Off: 4096, Len: 8192, Members: 2}
	m := meta(7, "a", "b")
	m.SetID = 7
	mustApply(t, s, &Edit{NewSets: []SetRecord{rec}, Added: []AddedFile{{Level: 3, Meta: m}}})
	// The old writer's edit, appended as it would have logged it.
	old := &Edit{Deleted: []DeletedFile{{Level: 3, Num: 7}}}
	if err := s.logw.AddRecord(old.Encode()); err != nil {
		t.Fatal(err)
	}
	r, _, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sets(); len(got) != 1 || got[7].Live != 0 || r.InvalidMembers(7) != 2 {
		t.Fatalf("recovered sets %+v, want set 7 with no live member", got)
	}
	e := &Edit{}
	if ret := mustApply(t, r, e); !slices.Equal(e.DropSets, []uint64{7}) || len(ret.Sets) != 1 || ret.Sets[0] != rec {
		t.Fatalf("first edit after recovery drops %v and reports %+v, want set 7", e.DropSets, ret.Sets)
	}
	if ret := mustApply(t, r, &Edit{}); len(r.Sets()) != 0 || len(ret.Sets) != 0 {
		t.Fatalf("set 7 dropped twice: %+v, state %+v", ret.Sets, r.Sets())
	}
	if r, _, err = Recover(cfg); err != nil || len(r.Sets()) != 0 {
		t.Fatalf("recovery after the drop: sets %+v, %v", r.Sets(), err)
	}
}

// TestApplyAllocatesPerTouchedLevel bounds what one compaction-shaped
// edit — two inputs out, three outputs in, against a level of 300 files
// — allocates: the new version and the one level it rebuilds, not a
// copy of all seven, and no sort scratch.
func TestApplyAllocatesPerTouchedLevel(t *testing.T) {
	v := &Version{}
	for l := 1; l < NumLevels; l++ {
		for i := 0; i < 300; i++ {
			v.Files[l] = append(v.Files[l], meta(uint64(l*1000+i), key(i*10), key(i*10+5)))
		}
	}
	e := &Edit{
		Deleted: []DeletedFile{{Level: 2, Num: 2100}, {Level: 3, Num: 3100}},
		Added: []AddedFile{
			{Level: 3, Meta: meta(9001, key(1000), key(1002))},
			{Level: 3, Meta: meta(9002, key(1003), key(1004))},
			{Level: 3, Meta: meta(9003, key(1005), key(1005))},
		},
	}
	var nv *Version
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		if nv, err = e.Apply(v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("a two-level edit allocated %v objects, want the version and its two rebuilt levels", allocs)
	}
	if len(nv.Files[2]) != 299 || len(nv.Files[3]) != 302 || nv.CheckInvariants(allSorted) != nil {
		t.Fatalf("L2 %d files, L3 %d, invariants %v", len(nv.Files[2]), len(nv.Files[3]), nv.CheckInvariants(allSorted))
	}
	for l := 1; l < NumLevels; l++ {
		if shared := &nv.Files[l][0] == &v.Files[l][0]; shared != (l != 2 && l != 3) {
			t.Errorf("L%d shared with the parent version: %v", l, shared)
		}
	}
	// The probe compaction makes per old tombstone builds no list.
	in, gap := []byte(key(1003)), []byte(key(1007))
	if !v.OverlapsAny(3, in, in, true) || v.OverlapsAny(3, gap, gap, true) {
		t.Error("OverlapsAny misplaces a key inside file 3100 or one in the gap after it")
	}
	if n := testing.AllocsPerRun(50, func() { v.OverlapsAny(3, in, in, true) }); n != 0 {
		t.Errorf("OverlapsAny allocated %v objects", n)
	}
}
