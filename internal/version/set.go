package version

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"sealdb/internal/invariant"
	"sealdb/internal/kv"
	"sealdb/internal/obs"
	"sealdb/internal/storage"
	"sealdb/internal/wal"
)

// CurrentFileNum is the reserved file number of the 8-byte CURRENT
// pointer that names the live MANIFEST, mirroring LevelDB's CURRENT
// file.
const CurrentFileNum uint64 = 0

// Config wires a Set to its storage and level semantics.
type Config struct {
	Backend *storage.Backend
	// ManifestSize is the preallocated size of each MANIFEST file;
	// the set rotates to a fresh manifest when one fills up.
	ManifestSize int64
	// SortedLevel reports whether a level's files must be disjoint
	// (false for the SMRDB baseline's overlapped level 1).
	SortedLevel func(level int) bool
}

// Set owns the current Version and the MANIFEST, and issues file
// numbers and sequence numbers.
type Set struct {
	// mu serializes version edits and manifest appends; profiled as
	// the "version_set_mu" contention site. LogAndApply holds it
	// across the manifest write, so it sits above the storage locks
	// in the hierarchy.
	mu  obs.Mutex
	cfg Config

	current     *Version            // guarded by mu
	manifestNum uint64              // guarded by mu
	manifest    *storage.AppendFile // guarded by mu
	logw        *wal.Writer         // guarded by mu

	nextFile   uint64                    // guarded by mu
	lastSeq    kv.SeqNum                 // guarded by mu
	logNum     uint64                    // guarded by mu
	compactPtr [NumLevels]kv.InternalKey // guarded by mu
	sets       map[uint64]SetInfo        // guarded by mu
	vsegs      map[uint64]VlogSeg        // guarded by mu
	vlogHead   VlogPos                   // guarded by mu
	// sealed sums the Bytes, Overhead and Dead of the sealed segments in
	// vsegs, and dead the Dead of all of them: running totals putVseg
	// keeps, so the collector's budget check walks no segment.
	sealed VlogSeg // guarded by mu
	dead   int64   // guarded by mu
	// dropped holds, for each value-log segment this Set registered, the
	// bits of the records whose last tree entry a compaction dropped
	// (VlogDeadRecord.Dropped). It is never persisted, and a recovered
	// segment has no entry: it may hold records written under another
	// threshold, whose bits could collide.
	dropped map[uint64]VlogBits // guarded by mu
	// memberless lists, in id order, the sets Recover found with no live
	// member: their drop was logged apart from the deletion that emptied
	// them and never landed. The next edit drops them.
	memberless []uint64 // guarded by mu
}

// SetInfo is a live set: its record, and how many of its members the
// current version still holds and their bytes (the rest of the extent is
// dead space).
type SetInfo struct {
	SetRecord
	Live      int
	LiveBytes int64
}

// Retired is what an edit took out of the store. Once LogAndApply has
// returned them nothing durable references them, and their space is the
// caller's to reclaim when no reader can still be on it.
type Retired struct {
	// Files are the tables the edit deleted without adding them back (a
	// trivial move does both to one file) and the value-log segments it
	// dropped.
	Files []uint64
	// Sets are the sets the edit left without a live member and so
	// dropped, in the order their last members were deleted.
	Sets []SetRecord
}

// VlogSeg is the manifest's view of one value-log segment. Bytes is
// authoritative once Sealed; while a segment is active its true
// length lives on the device and recovery rediscovers it by scanning
// for the last whole group.
type VlogSeg struct {
	Num      uint64
	Bytes    int64
	Overhead int64 // header and frame bytes within Bytes (once Sealed)
	Dead     int64 // dead record bytes
	Sealed   bool
}

// Live returns the segment's live record bytes.
func (s VlogSeg) Live() int64 { return s.Bytes - s.Overhead - s.Dead }

// DeadRatio returns the fraction of the segment's record bytes known
// dead. Overhead is left out of both sides, so the collector's
// threshold means what it meant when the log held records only.
func (s VlogSeg) DeadRatio() float64 {
	if s.Bytes <= s.Overhead {
		return 0
	}
	return float64(s.Dead) / float64(s.Bytes-s.Overhead)
}

// VlogBits is a segment's dropped-record bitmap (Set.VlogDropped). It is
// copied on write, so one a caller holds never changes.
type VlogBits []uint64

// Has reports whether bit is set.
func (b VlogBits) Has(bit uint64) bool {
	w := bit / 64
	return w < uint64(len(b)) && b[w]&(1<<(bit%64)) != 0
}

// with returns a copy of b, grown as needed, with every bit of bits set.
func (b VlogBits) with(bits []uint64) VlogBits {
	n := len(b)
	for _, bit := range bits {
		n = max(n, int(bit/64)+1)
	}
	out := make(VlogBits, n)
	copy(out, b)
	for _, bit := range bits {
		out[bit/64] |= 1 << (bit % 64)
	}
	return out
}

// Create initializes a brand-new database state.
func Create(cfg Config) (*Set, error) {
	if cfg.ManifestSize <= 0 {
		cfg.ManifestSize = 4 << 20
	}
	s := &Set{cfg: cfg, current: &Version{}, nextFile: 1, sets: map[uint64]SetInfo{}, vsegs: map[uint64]VlogSeg{}, dropped: map[uint64]VlogBits{}}
	s.mu.Profile("version_set_mu")
	if err := s.newManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// RecoveryReport describes what Recover found on disk: how much of
// the MANIFEST replayed, and whether a torn or corrupt tail was
// discarded. The observability layer surfaces it at /debug/faults.
type RecoveryReport struct {
	ManifestNum uint64 `json:"manifest_num"`
	// Records is the number of complete edits replayed.
	Records int `json:"records"`
	// SkippedBytes counts manifest bytes dropped as torn or corrupt.
	SkippedBytes int64 `json:"skipped_bytes"`
	// TruncatedTail reports that recovery fell back to the last
	// complete edit, discarding a damaged tail.
	TruncatedTail bool `json:"truncated_tail"`
}

// Recover rebuilds the state from the CURRENT pointer and MANIFEST.
//
// The logical manifest size is not trusted: after a crash it may be
// stale, so the whole reserved extent is scanned and the log framing
// (tagged CRCs, strict mode) decides where the manifest really ends.
// A torn or corrupt tail is not an error — recovery lands on the
// last complete edit, truncates the damage away, and resumes
// appending from there.
func Recover(cfg Config) (*Set, *RecoveryReport, error) {
	if cfg.ManifestSize <= 0 {
		cfg.ManifestSize = 4 << 20
	}
	var cur [8]byte
	if _, err := cfg.Backend.ReadFileAt(CurrentFileNum, cur[:], 0); err != nil && err != io.EOF {
		return nil, nil, fmt.Errorf("version: reading CURRENT: %w", err)
	}
	manifestNum := binary.LittleEndian.Uint64(cur[:])
	buf, err := cfg.Backend.ReadReserved(manifestNum)
	if err != nil {
		return nil, nil, fmt.Errorf("version: reading MANIFEST %d: %w", manifestNum, err)
	}

	s := &Set{cfg: cfg, current: &Version{}, manifestNum: manifestNum, nextFile: manifestNum + 1, sets: map[uint64]SetInfo{}, vsegs: map[uint64]VlogSeg{}, dropped: map[uint64]VlogBits{}}
	s.mu.Profile("version_set_mu")
	report := &RecoveryReport{ManifestNum: manifestNum}
	r := wal.NewTaggedReader(bytes.NewReader(buf), manifestNum)
	var goodEnd int64
	for {
		rec, err := r.ReadRecord()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("version: MANIFEST record %d: %w", report.Records, err)
		}
		edit, err := DecodeEdit(rec)
		if err != nil {
			// The frame checksummed but the payload does not decode:
			// treat it like a torn tail and stop at the last good edit.
			report.TruncatedTail = true
			break
		}
		if err := s.applyLocked(edit); err != nil {
			report.TruncatedTail = true
			break
		}
		goodEnd = r.LastRecordEnd()
		report.Records++
	}
	if report.Records == 0 {
		return nil, nil, fmt.Errorf("version: no replayable edit in MANIFEST %d", manifestNum)
	}
	report.SkippedBytes = r.Skipped()
	logical, _ := cfg.Backend.FileSize(manifestNum)
	if goodEnd < logical {
		report.TruncatedTail = true
	}
	if r.Skipped() > 0 {
		report.TruncatedTail = true
	}
	var memberless []uint64
	for id, si := range s.Sets() {
		if si.Live == 0 {
			memberless = append(memberless, id)
		}
	}
	slices.Sort(memberless)
	// Construction-time accesses below run before the Set escapes to
	// any other goroutine, so they need no lock.
	s.memberless = memberless                                          //sealvet:allow guardedby
	if err := s.current.CheckInvariants(cfg.SortedLevel); err != nil { //sealvet:allow guardedby
		return nil, nil, fmt.Errorf("version: recovered state invalid: %w", err)
	}
	// Cut the damaged tail out of the manifest (also retiring its
	// drive validity, so resumed appends cannot overlap it) and
	// continue appending after the last complete edit.
	f, err := cfg.Backend.ReopenAppend(manifestNum, goodEnd)
	if err != nil {
		return nil, nil, fmt.Errorf("version: truncating MANIFEST %d to %d: %w", manifestNum, goodEnd, err)
	}
	s.manifest = f                                          //sealvet:allow guardedby
	s.logw = wal.NewReopenedWriter(f, manifestNum, goodEnd) //sealvet:allow guardedby
	return s, report, nil
}

// applyLocked folds an edit into the in-memory state.
func (s *Set) applyLocked(e *Edit) error {
	deleted := make([]*FileMeta, len(e.Deleted))
	nv, err := e.apply(s.current, deleted)
	if err != nil {
		return err
	}
	s.install(e, nv, deleted)
	return nil
}

// retire derives what e takes out of the store from the files it
// deletes: it fills e.DropSets — every set whose last live member goes
// with this edit, so a drop is always in the edit that emptied the set —
// and returns what the caller may reclaim. Only reads the state. Caller
// holds s.mu.
func (s *Set) retire(e *Edit, deleted []*FileMeta) Retired {
	var r Retired
	e.DropSets = append([]uint64(nil), s.memberless...)
	for i, f := range deleted {
		if !slices.ContainsFunc(e.Added, func(a AddedFile) bool { return a.Meta.Num == f.Num }) {
			r.Files = append(r.Files, f.Num)
		}
		set, ok := s.sets[f.SetID]
		if !ok || slices.ContainsFunc(deleted[i+1:], func(g *FileMeta) bool { return g.SetID == set.ID }) {
			continue // no set, or not its last member to go
		}
		// Adds count before deletes: a trivial move nets zero.
		live := set.Live
		for _, a := range e.Added {
			if a.Meta.SetID == set.ID {
				live++
			}
		}
		for _, g := range deleted {
			if g.SetID == set.ID {
				live--
			}
		}
		if live == 0 {
			e.DropSets = append(e.DropSets, set.ID)
		}
	}
	r.Files = append(r.Files, e.DropVlogSegs...)
	for _, id := range e.DropSets {
		r.Sets = append(r.Sets, s.sets[id].SetRecord)
	}
	return r
}

// install makes nv, which e.apply built from the current version, the
// current one and folds the rest of e into the state. Caller holds s.mu.
func (s *Set) install(e *Edit, nv *Version, deleted []*FileMeta) {
	s.current = nv
	if e.HasLogNum {
		s.logNum = e.LogNum
	}
	if e.HasNextFile && e.NextFileNum > s.nextFile {
		s.nextFile = e.NextFileNum
	}
	if e.HasLastSeq && e.LastSeq > s.lastSeq {
		s.lastSeq = e.LastSeq
	}
	for _, cp := range e.CompactPointers {
		if cp.Level >= 0 && cp.Level < NumLevels {
			s.compactPtr[cp.Level] = cp.Key
		}
	}
	for _, a := range e.Added {
		if a.Meta.Num >= s.nextFile {
			s.nextFile = a.Meta.Num + 1
		}
	}
	for _, sr := range e.NewSets {
		s.sets[sr.ID] = SetInfo{SetRecord: sr}
	}
	for _, a := range e.Added {
		s.countMember(a.Meta, 1)
	}
	for _, f := range deleted {
		s.countMember(f, -1)
	}
	for _, id := range e.DropSets {
		delete(s.sets, id)
	}
	for _, num := range e.NewVlogSegs {
		s.putVseg(VlogSeg{Num: num})
		if num >= s.nextFile {
			s.nextFile = num + 1
		}
	}
	for _, vr := range e.SealVlogSegs {
		vs := s.vsegs[vr.Num]
		vs.Num, vs.Bytes, vs.Overhead, vs.Sealed = vr.Num, vr.Bytes, vr.Overhead, true
		if vs.Dead > vs.Bytes-vs.Overhead {
			vs.Dead = vs.Bytes - vs.Overhead
		}
		s.putVseg(vs)
		if vr.Num >= s.nextFile {
			s.nextFile = vr.Num + 1
		}
	}
	for _, dr := range e.VlogDead {
		if vs, ok := s.vsegs[dr.Num]; ok {
			vs.Dead += dr.Dead
			if vs.Sealed && vs.Dead > vs.Bytes-vs.Overhead {
				vs.Dead = vs.Bytes - vs.Overhead
			}
			s.putVseg(vs)
		}
		if b, ok := s.dropped[dr.Num]; ok && len(dr.Dropped) > 0 {
			s.dropped[dr.Num] = b.with(dr.Dropped)
		}
	}
	for _, num := range e.DropVlogSegs {
		s.tallyVseg(s.vsegs[num], -1)
		delete(s.vsegs, num)
		delete(s.dropped, num)
	}
	if e.HasVlogHead {
		s.vlogHead = e.VlogHead
	}
}

// putVseg makes vs its segment's record and keeps the running totals in
// step. Caller holds s.mu.
func (s *Set) putVseg(vs VlogSeg) {
	s.tallyVseg(s.vsegs[vs.Num], -1)
	s.tallyVseg(vs, 1)
	s.vsegs[vs.Num] = vs
}

// tallyVseg adds vs into (sign 1) or takes it out of (-1) the running
// totals. Caller holds s.mu.
func (s *Set) tallyVseg(vs VlogSeg, sign int64) {
	s.dead += sign * vs.Dead
	if vs.Sealed {
		s.sealed.Bytes += sign * vs.Bytes
		s.sealed.Overhead += sign * vs.Overhead
		s.sealed.Dead += sign * vs.Dead
	}
}

// countMember counts f into (sign 1) or out of (-1) its set's live
// members. Caller holds s.mu.
func (s *Set) countMember(f *FileMeta, sign int) {
	if si, ok := s.sets[f.SetID]; ok {
		si.Live += sign
		si.LiveBytes += int64(sign) * f.Size
		s.sets[f.SetID] = si
	}
}

// newManifest starts a fresh MANIFEST containing a snapshot of the
// current state, and repoints CURRENT at it. Caller holds s.mu
// (except during construction, before the Set escapes).
func (s *Set) newManifest() error {
	num := s.nextFile
	s.nextFile++
	f, err := s.cfg.Backend.CreateAppend(num, s.cfg.ManifestSize)
	if err != nil {
		return err
	}
	w := wal.NewTaggedWriter(f, num)
	if err := w.AddRecord(s.snapshotEdit().Encode()); err != nil {
		return err
	}
	// Repoint CURRENT atomically: write-new-then-swap, so a crash
	// leaves CURRENT naming either the old or the new manifest, never
	// a torn pointer.
	var cur [8]byte
	binary.LittleEndian.PutUint64(cur[:], num)
	if err := s.cfg.Backend.ReplaceFile(CurrentFileNum, cur[:]); err != nil {
		return err
	}
	if s.manifestNum != 0 {
		s.cfg.Backend.Remove(s.manifestNum)
	}
	s.manifestNum = num
	s.manifest = f
	s.logw = w
	return nil
}

// snapshotEdit captures the full state as a single edit.
// Caller holds s.mu.
func (s *Set) snapshotEdit() *Edit {
	e := &Edit{
		HasLogNum: true, LogNum: s.logNum,
		HasNextFile: true, NextFileNum: s.nextFile,
		HasLastSeq: true, LastSeq: s.lastSeq,
	}
	for l := 0; l < NumLevels; l++ {
		if s.compactPtr[l] != nil {
			e.CompactPointers = append(e.CompactPointers, CompactPointer{Level: l, Key: s.compactPtr[l]})
		}
		for _, f := range s.current.Files[l] {
			e.Added = append(e.Added, AddedFile{Level: l, Meta: f})
		}
	}
	for _, si := range s.sets {
		e.NewSets = append(e.NewSets, si.SetRecord)
	}
	for _, vs := range s.vsegs {
		if vs.Sealed {
			e.SealVlogSegs = append(e.SealVlogSegs, VlogSegRecord{Num: vs.Num, Bytes: vs.Bytes, Overhead: vs.Overhead})
		} else {
			e.NewVlogSegs = append(e.NewVlogSegs, vs.Num)
		}
		if vs.Dead > 0 {
			e.VlogDead = append(e.VlogDead, VlogDeadRecord{Num: vs.Num, Dead: vs.Dead})
		}
	}
	if s.vlogHead != (VlogPos{}) {
		e.HasVlogHead, e.VlogHead = true, s.vlogHead
	}
	return e
}

// LogAndApply makes the edit durable in the MANIFEST and installs the
// successor version. It decides what the edit killed — e.DropSets is
// derived here, never filled by the caller — and reports it.
func (s *Set) LogAndApply(e *Edit) (Retired, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.HasNextFile, e.NextFileNum = true, s.nextFile
	deleted := make([]*FileMeta, len(e.Deleted))
	nv, err := e.apply(s.current, deleted)
	if err != nil {
		return Retired{}, err
	}
	retired := s.retire(e, deleted)
	rec := e.Encode()
	// Rotate if the manifest cannot hold this record (generously
	// accounting for WAL framing overhead): the fresh manifest's snapshot
	// carries the edit.
	overhead := int64(len(rec)/wal.BlockSize+2) * 64
	rotate := s.manifest.Size()+int64(len(rec))+overhead > s.cfg.ManifestSize
	if !rotate {
		if err := s.logw.AddRecord(rec); err != nil {
			return Retired{}, err
		}
	}
	for _, num := range e.NewVlogSegs {
		s.dropped[num] = nil // registered here: every record in it is its owner's
	}
	s.install(e, nv, deleted)
	s.memberless = nil
	s.checkInvariantsLocked()
	if rotate {
		if err := s.newManifest(); err != nil {
			return Retired{}, err
		}
	}
	return retired, nil
}

// checkInvariantsLocked re-validates the live version's level
// invariants (sorted levels disjoint and ordered, file numbers sane)
// after an edit lands. It only does work under -tags
// sealdb_invariants. Caller holds s.mu.
func (s *Set) checkInvariantsLocked() {
	if !invariant.Enabled {
		return
	}
	if err := s.current.CheckInvariants(s.cfg.SortedLevel); err != nil {
		invariant.Assert(false, "version state invalid after edit: %v", err)
	}
	recount := &Set{vsegs: map[uint64]VlogSeg{}}
	for _, vs := range s.vsegs {
		recount.putVseg(vs)
	}
	invariant.Assert(recount.sealed == s.sealed && recount.dead == s.dead,
		"vlog totals %+v/%d drifted from their recount %+v/%d", s.sealed, s.dead, recount.sealed, recount.dead)
}

// Current returns the live version. The returned value is immutable.
func (s *Set) Current() *Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current
}

// NewFileNum issues the next file number.
func (s *Set) NewFileNum() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nextFile
	s.nextFile++
	return n
}

// LastSeq returns the recovered/persisted last sequence number.
func (s *Set) LastSeq() kv.SeqNum {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// LogNum returns the WAL file number recorded in the manifest.
func (s *Set) LogNum() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logNum
}

// CompactPointer returns the round-robin cursor of a level.
func (s *Set) CompactPointer(level int) kv.InternalKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactPtr[level]
}

// Sets returns a copy of the live sets, by id.
func (s *Set) Sets() map[uint64]SetInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return maps.Clone(s.sets)
}

// InvalidMembers returns how many of set id's members are already dead
// (0 for an unknown set).
func (s *Set) InvalidMembers(id uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	si := s.sets[id]
	return si.Members - si.Live
}

// VlogSegs returns the live value-log segment records in number order.
func (s *Set) VlogSegs() []VlogSeg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.SortedFunc(maps.Values(s.vsegs), func(a, b VlogSeg) int { return cmp.Compare(a.Num, b.Num) })
}

// VlogSeg returns segment num's record.
func (s *Set) VlogSeg(num uint64) (VlogSeg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vs, ok := s.vsegs[num]
	return vs, ok
}

// VlogDropped returns segment num's dropped-record bitmap: empty for a
// segment recovered from the manifest or one no compaction charged.
func (s *Set) VlogDropped(num uint64) VlogBits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped[num]
}

// VlogTotals returns the running sums of the segment records: bytes and
// overhead of the sealed segments (the active one's are the writer's to
// add), dead bytes of all.
func (s *Set) VlogTotals() (bytes, overhead, dead int64, segments int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealed.Bytes, s.sealed.Overhead, s.dead, len(s.vsegs)
}

// VlogVictim returns the collector's next victim while the sealed log is
// over its dead budget — its dead record bytes above budget of its record
// bytes, a check on the running sums: the sealed segment before the
// replay head with the highest dead ratio, if that ratio is over the
// budget too (collecting one less dead would raise the log's dead share).
// Segments from the head on are still the write-ahead
// log of unflushed batches, and collecting one would delete acknowledged
// writes recovery has yet to replay. Ties break toward the lowest number,
// so the choice is a function of the state.
func (s *Set) VlogVictim(budget float64) (VlogSeg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best VlogSeg
	if s.sealed.DeadRatio() <= budget {
		return best, false
	}
	for _, vs := range s.vsegs {
		if !vs.Sealed || vs.Num >= s.vlogHead.Seg || vs.DeadRatio() <= budget {
			continue
		}
		if best.Num == 0 || vs.DeadRatio() > best.DeadRatio() ||
			(vs.DeadRatio() == best.DeadRatio() && vs.Num < best.Num) {
			best = vs
		}
	}
	return best, best.Num != 0
}

// VlogHead returns the value log's replay head recorded in the
// manifest (the zero position when no edit has set one).
func (s *Set) VlogHead() VlogPos {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vlogHead
}

// ManifestNum returns the live MANIFEST file number (for tests).
func (s *Set) ManifestNum() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifestNum
}
