// Storage-surface observatory: online per-band live/dead byte
// accounting over the dynamic-band surface, with a logical-clock
// write-heat EWMA, owning-set attribution, and a continuous
// space-amplification counter (physical bytes on bands ÷ logical live
// bytes) next to the existing WA/AWA counters.
//
// The accounting is fed incrementally from the dband.Manager observer
// (every allocator event: frontier appends, free-list inserts, frees)
// plus explicit claim/dead charges from the compaction, band-GC and
// vlog-GC paths, and is rebuilt from the manifest-backed extent table
// at the end of every open — so after crash recovery the incremental
// counters equal a freshly computed scan by construction, and
// VerifyIntegrity re-derives the per-band totals from the extent table
// to prove they stayed equal.
//
// The heat clock is the simulated device clock (platter busy time)
// injected from the DB, keeping the observatory inside the same
// logical-time determinism contract as the rest of the device stack.
package lsm

import (
	"math"
	"sort"

	"sealdb/internal/dband"
	"sealdb/internal/obs"
)

// surfaceHeatHalfLife is the write-heat EWMA half-life in simulated
// device nanoseconds: a band's heat halves every 500ms of device busy
// time with no writes landing in it.
const surfaceHeatHalfLife = int64(500e6)

// surfExtent is one allocator-granularity extent on the surface: a
// plain file (SSTable, WAL, manifest, vlog segment) or a whole set
// group. dead counts the bytes inside it that are no longer logically
// live — invalidated set members, group slack, vlog garbage — but not
// yet returned to the free list.
type surfExtent struct {
	len   int64
	dead  int64
	owner uint64 // owning set id; 0 = not a set extent
}

// bandStat is the incrementally maintained per-band state. alloc
// tracks the bytes of live extents overlapping the band; writeBytes
// and heat track allocation traffic into it (heat decays, writeBytes
// does not).
type bandStat struct {
	alloc      int64
	writeBytes int64
	heat       float64
	heatAt     int64 // device-ns of the last heat decay
}

// surface is the observatory state. It hangs off the DB and is active
// only in dynamic-band mode (SEALDB).
//
// Locking: mu is a leaf below both the engine mutex and the allocator
// mutex — alloc/free arrive from the dband observer with
// dband_manager_mu held, claims and dead charges from engine paths
// with lsm_db_mu held. Surface methods never call back into the
// manager, the backend or the DB.
//
// lockorder: lsm_db_mu < band_stats_mu
// lockorder: dband_manager_mu < band_stats_mu
type surface struct {
	enabled bool  // set once before observers install, then read-only
	stride  int64 // band bucket width (Geometry.BandSize)

	mu    obs.Mutex             // profiled as "band_stats_mu"
	exts  map[int64]*surfExtent // keyed by extent offset; guarded by mu
	bands map[int64]*bandStat   // keyed by band index; guarded by mu
	phys  int64                 // Σ extent lens; guarded by mu
	dead  int64                 // Σ extent dead bytes; guarded by mu
}

// init arms the observatory. Called once from OpenDevice before the
// device observers are installed; stride is the band bucket width.
func (s *surface) init(stride int64) {
	s.enabled = true
	s.stride = stride
	s.mu.Profile("band_stats_mu")
	s.reset()
}

// reset clears all accounting. Caller holds no surface lock.
func (s *surface) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exts = make(map[int64]*surfExtent)
	s.bands = make(map[int64]*bandStat)
	s.phys, s.dead = 0, 0
}

// eachBand visits every band a byte range overlaps with the overlap
// length. It reads only the immutable stride.
func (s *surface) eachBand(off, length int64, fn func(band, overlap int64)) {
	end := off + length
	for b := off / s.stride; b*s.stride < end; b++ {
		lo, hi := b*s.stride, (b+1)*s.stride
		if off > lo {
			lo = off
		}
		if end < hi {
			hi = end
		}
		fn(b, hi-lo)
	}
}

// band returns (creating if needed) a band's state. Caller holds s.mu.
func (s *surface) band(b int64) *bandStat {
	st := s.bands[b]
	if st == nil {
		st = &bandStat{}
		s.bands[b] = st
	}
	return st
}

// decay applies the EWMA half-life decay up to now. Caller holds s.mu.
func (st *bandStat) decay(now int64) {
	if dt := now - st.heatAt; dt > 0 {
		if st.heat > 0 {
			st.heat *= math.Exp2(-float64(dt) / float64(surfaceHeatHalfLife))
		}
		st.heatAt = now
	}
}

// alloc records an allocator grant: a new live extent at off. now is
// the device clock; the write heats every band the extent lands in.
func (s *surface) alloc(off, length, now int64) {
	if !s.enabled {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exts[off] = &surfExtent{len: length}
	s.phys += length
	s.eachBand(off, length, func(b, overlap int64) {
		st := s.band(b)
		st.alloc += overlap
		st.writeBytes += overlap
		st.decay(now)
		st.heat += float64(overlap)
	})
}

// free records an allocator free. Unknown offsets are a tolerated
// no-op: during recovery the allocator replays frees (leaked-extent
// reclamation) for space the observatory never saw allocated, and the
// post-open rebuild resets everything from the extent table anyway.
func (s *surface) free(off int64) {
	if !s.enabled {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.exts[off]
	if e == nil {
		return
	}
	delete(s.exts, off)
	s.phys -= e.len
	s.dead -= e.dead
	s.eachBand(off, e.len, func(b, overlap int64) {
		s.band(b).alloc -= overlap
	})
}

// claim attributes the extent at off to a set and charges the group
// slack (extent length minus the members' data bytes — guard padding
// the allocator reserved) as dead. It returns the slack actually
// charged so the caller can journal it for the offline replay.
func (s *surface) claim(off int64, owner uint64, dataBytes int64) int64 {
	if !s.enabled {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.exts[off]
	if e == nil {
		return 0
	}
	e.owner = owner
	slack := e.len - dataBytes
	if slack <= 0 {
		return 0
	}
	return s.chargeLocked(e, slack)
}

// chargeDead charges n dead bytes against the extent at off, clamped
// so an extent is never more dead than long. It returns the bytes
// actually charged (0 when the extent is unknown).
func (s *surface) chargeDead(off, n int64) int64 {
	if !s.enabled || n <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.exts[off]
	if e == nil {
		return 0
	}
	return s.chargeLocked(e, n)
}

// chargeLocked clamps and applies a dead charge. Caller holds s.mu.
func (s *surface) chargeLocked(e *surfExtent, n int64) int64 {
	if room := e.len - e.dead; n > room {
		n = room
	}
	if n <= 0 {
		return 0
	}
	e.dead += n
	s.dead += n
	return n
}

// SurfaceExtent is the public form of one tracked extent, the replay
// baseline the trace analyzer starts from.
type SurfaceExtent struct {
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	Dead int64  `json:"dead,omitempty"`
	Set  uint64 `json:"set,omitempty"`
}

// extents returns the tracked extents sorted by offset.
func (s *surface) extents() []SurfaceExtent {
	if !s.enabled {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SurfaceExtent, 0, len(s.exts))
	for off, e := range s.exts {
		out = append(out, SurfaceExtent{Off: off, Len: e.len, Dead: e.dead, Set: e.owner})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// totals returns (physical, dead) bytes across all tracked extents.
func (s *surface) totals() (phys, dead int64) {
	if !s.enabled {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.phys, s.dead
}

// BandRow is one band of the /debug/bands payload and the
// band_snapshot journal event: incremental alloc/heat state joined
// with the dead bytes and owning sets derived from the extent map.
type BandRow struct {
	Band       int64    `json:"band"`
	Start      int64    `json:"start"`
	Alloc      int64    `json:"alloc_bytes"`
	Dead       int64    `json:"dead_bytes"`
	Live       int64    `json:"live_bytes"`
	LiveRatio  float64  `json:"live_ratio"`
	WriteBytes int64    `json:"write_bytes"`
	Heat       float64  `json:"heat"`
	Sets       []uint64 `json:"sets,omitempty"`
}

// spreadDead distributes an extent's dead bytes over the bands it
// overlaps, proportionally to the overlap, assigning the integer
// remainder to the extent's last band so totals stay exact. The
// offline analyzer reimplements the same rule; keep them in sync.
func spreadDead(stride, off, length, dead int64, add func(band, n int64)) {
	if dead <= 0 {
		return
	}
	end := off + length
	last := (end - 1) / stride
	var assigned int64
	for b := off / stride; b <= last; b++ {
		lo, hi := b*stride, (b+1)*stride
		if off > lo {
			lo = off
		}
		if end < hi {
			hi = end
		}
		n := dead * (hi - lo) / length
		if b == last {
			n = dead - assigned
		}
		assigned += n
		add(b, n)
	}
}

// rows builds the per-band view: every band with live allocation or
// residual heat, dead bytes spread from the extent map, owning sets
// attributed, heat decayed to now. Sorted hottest first, then by live
// ratio ascending (coldest, deadest bands last — the defragmentation
// victims read off the bottom).
func (s *surface) rows(now int64) []BandRow {
	if !s.enabled {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	deadBy := make(map[int64]int64)
	setsBy := make(map[int64]map[uint64]bool)
	for off, e := range s.exts {
		spreadDead(s.stride, off, e.len, e.dead, func(b, n int64) {
			deadBy[b] += n
		})
		if e.owner != 0 {
			s.eachBand(off, e.len, func(b, _ int64) {
				m := setsBy[b]
				if m == nil {
					m = make(map[uint64]bool)
					setsBy[b] = m
				}
				m[e.owner] = true
			})
		}
	}
	rows := make([]BandRow, 0, len(s.bands))
	for b, st := range s.bands {
		st.decay(now)
		if st.alloc == 0 && st.heat < 1 {
			continue
		}
		r := BandRow{
			Band:       b,
			Start:      b * s.stride,
			Alloc:      st.alloc,
			Dead:       deadBy[b],
			WriteBytes: st.writeBytes,
			Heat:       st.heat,
		}
		r.Live = r.Alloc - r.Dead
		if r.Alloc > 0 {
			r.LiveRatio = float64(r.Live) / float64(r.Alloc)
		}
		for id := range setsBy[b] {
			r.Sets = append(r.Sets, id)
		}
		sort.Slice(r.Sets, func(i, j int) bool { return r.Sets[i] < r.Sets[j] })
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Heat != rows[j].Heat {
			return rows[i].Heat > rows[j].Heat
		}
		if rows[i].LiveRatio != rows[j].LiveRatio {
			return rows[i].LiveRatio < rows[j].LiveRatio
		}
		return rows[i].Band < rows[j].Band
	})
	return rows
}

// maxHeat returns the hottest band's decayed heat.
func (s *surface) maxHeat(now int64) float64 {
	if !s.enabled {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var max float64
	for _, st := range s.bands {
		st.decay(now)
		if st.heat > max {
			max = st.heat
		}
	}
	return max
}

// rebuild reloads the surface from authoritative extent state (the
// backend file table, the manifest's set records and the vlog segment
// table) after recovery. Heat and write counters restart cold; alloc,
// dead and ownership are exactly what a fresh scan computes.
func (s *surface) rebuild(exts []SurfaceExtent) {
	if !s.enabled {
		return
	}
	s.reset()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range exts {
		se := &surfExtent{len: e.Len, owner: e.Set}
		s.exts[e.Off] = se
		s.phys += e.Len
		s.eachBand(e.Off, e.Len, func(b, overlap int64) {
			s.band(b).alloc += overlap
		})
		s.chargeLocked(se, e.Dead)
	}
}

// ---------------------------------------------------------------------------
// DB-level wiring: profiles, snapshots, rebuild, reconciliation.

// VlogSegmentRow is one value-log segment's occupancy in the
// /debug/bands payload — the per-segment accounting maybeVlogGC's
// dead-ratio victim selection reads, surfaced.
type VlogSegmentRow struct {
	Num       uint64  `json:"num"`
	Bytes     int64   `json:"bytes"`
	Overhead  int64   `json:"overhead_bytes"`
	Dead      int64   `json:"dead_bytes"`
	Live      int64   `json:"live_bytes"`
	DeadRatio float64 `json:"dead_ratio"`
	Sealed    bool    `json:"sealed"`
}

// BandProfile is the /debug/bands payload: the fragmentation profile,
// every band sorted by heat then live ratio, and (in vlog mode) the
// per-segment occupancy with the GC threshold and its current victim.
type BandProfile struct {
	BandSize   int64             `json:"band_size"`
	Frag       dband.FragProfile `json:"frag"`
	Bands      []BandRow         `json:"bands"`
	Vlog       []VlogSegmentRow  `json:"vlog,omitempty"`
	VlogGCDead float64           `json:"vlog_gc_dead_ratio,omitempty"`
	VlogVictim uint64            `json:"vlog_gc_victim,omitempty"`
}

// SpaceProfile is the /debug/space payload: the continuous
// space-amplification counter and its inputs.
type SpaceProfile struct {
	PhysicalBytes      int64             `json:"physical_bytes"`
	LogicalLiveBytes   int64             `json:"logical_live_bytes"`
	TableBytes         int64             `json:"table_bytes"`
	VlogLiveBytes      int64             `json:"vlog_live_bytes,omitempty"`
	SurfaceDeadBytes   int64             `json:"surface_dead_bytes"`
	SpaceAmplification float64           `json:"space_amplification"`
	Frag               dband.FragProfile `json:"frag"`
}

// tableBytesLocked sums the current version's per-level table bytes —
// the logical footprint of the LSM tree. Caller holds d.mu.
func (d *DB) tableBytesLocked() int64 {
	var t int64
	cur := d.vs.Current()
	for l := 0; l < d.cfg.NumLevels; l++ {
		t += cur.LevelBytes(l)
	}
	return t
}

// spaceProfileLocked computes the space-amplification profile.
// Caller holds d.mu.
func (d *DB) spaceProfileLocked() SpaceProfile {
	var p SpaceProfile
	if !d.surface.enabled {
		return p
	}
	p.TableBytes = d.tableBytesLocked()
	if d.cfg.vlogEnabled() {
		live, _, _ := d.vlog.tab.Totals()
		p.VlogLiveBytes = live
	}
	p.LogicalLiveBytes = p.TableBytes + p.VlogLiveBytes
	p.PhysicalBytes, p.SurfaceDeadBytes = d.surface.totals()
	if p.LogicalLiveBytes > 0 {
		p.SpaceAmplification = float64(p.PhysicalBytes) / float64(p.LogicalLiveBytes)
	}
	p.Frag = d.dev.DBand.FragProfile()
	return p
}

// SpaceProfile reports the continuous space-amplification counter:
// physical bytes reserved on bands divided by logical live bytes
// (table bytes plus vlog live bytes). Zero-valued outside dynamic-band
// mode.
func (d *DB) SpaceProfile() SpaceProfile {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spaceProfileLocked()
}

// BandProfile reports the per-band surface view. Zero-valued outside
// dynamic-band mode.
func (d *DB) BandProfile() BandProfile {
	d.mu.Lock()
	defer d.mu.Unlock()
	var p BandProfile
	if !d.surface.enabled {
		return p
	}
	p.BandSize = d.surface.stride
	p.Frag = d.dev.DBand.FragProfile()
	p.Bands = d.surface.rows(d.deviceNow())
	if d.cfg.vlogEnabled() {
		p.VlogGCDead = vlogGCDeadRatio
		if vic, ok := d.vlogVictim(); ok {
			p.VlogVictim = vic.Num
		}
		for _, seg := range d.vlog.tab.Segments() {
			p.Vlog = append(p.Vlog, VlogSegmentRow{
				Num:       seg.Num,
				Bytes:     seg.Bytes,
				Overhead:  seg.Overhead,
				Dead:      seg.Dead,
				Live:      seg.Live(),
				DeadRatio: seg.DeadRatio(),
				Sealed:    seg.Sealed,
			})
		}
	}
	return p
}

// SurfaceExtents returns the observatory's tracked extents sorted by
// offset — the baseline the offline analyzer replays allocator events
// from. Nil outside dynamic-band mode.
func (d *DB) SurfaceExtents() []SurfaceExtent {
	return d.surface.extents()
}

// surfaceClaim attributes a freshly registered set's group extent and
// journals the slack charge for the offline replay (nothing is charged,
// so nothing journaled, with the observatory off). Caller holds d.mu.
func (d *DB) surfaceClaim(off int64, owner uint64, dataBytes int64) {
	if slack := d.surface.claim(off, owner, dataBytes); slack > 0 {
		d.journal.Record("band_dead", map[string]int64{"off": off, "bytes": slack})
	}
}

// surfaceChargeDead charges dead bytes against the extent at off and
// journals the charge for the offline replay. Caller holds d.mu.
func (d *DB) surfaceChargeDead(off, n int64) {
	if charged := d.surface.chargeDead(off, n); charged > 0 {
		d.journal.Record("band_dead", map[string]int64{"off": off, "bytes": charged})
	}
}

// surfaceChargeInput marks a compaction input's bytes dead on the
// surface: a set member charges its slice of the group extent, an
// ungrouped file (an L0 table, a wholly consumed set already reduced
// to one file) charges its own extent. Called before the registry
// forgets the membership. Caller holds d.mu.
func (d *DB) surfaceChargeInput(num uint64) {
	if !d.surface.enabled {
		return
	}
	ext, err := d.backend.FileExtent(num)
	if err != nil {
		return
	}
	off := ext.Off
	if id := d.sets.setOf(num); id != 0 {
		if st := d.sets.byID[id]; st != nil {
			off = st.rec.Off
		}
	}
	d.surfaceChargeDead(off, ext.Len)
}

// surfaceRebuild reloads the observatory from the authoritative
// extent state at the end of an open: ungrouped backend files (tables,
// WAL, manifest, CURRENT, vlog segments), the manifest's set records
// (with dead bytes equal to the group length minus the live members'
// extents), and vlog per-segment dead bytes. Any observer noise from
// recovery-time allocator traffic is discarded. Called at the end of
// OpenDevice, before the DB is shared.
func (d *DB) surfaceRebuild() {
	if !d.surface.enabled {
		return
	}
	var exts []SurfaceExtent
	for _, fr := range d.backend.Files() {
		if fr.Grouped {
			continue
		}
		exts = append(exts, SurfaceExtent{Off: fr.Extent.Off, Len: fr.Extent.Len})
	}
	for id, st := range d.sets.byID {
		var liveBytes int64
		for num := range st.live {
			if ext, err := d.backend.FileExtent(num); err == nil {
				liveBytes += ext.Len
			}
		}
		exts = append(exts, SurfaceExtent{
			Off: st.rec.Off, Len: st.rec.Len, Dead: st.rec.Len - liveBytes, Set: id,
		})
	}
	d.surface.rebuild(exts)
	if d.cfg.vlogEnabled() {
		for _, seg := range d.vlog.tab.Segments() {
			dead := seg.Dead
			if seg.Sealed {
				dead += seg.Overhead // charged at the seal (vlogRotate)
			}
			if ext, err := d.backend.FileExtent(seg.Num); err == nil && dead > 0 {
				d.surface.chargeDead(ext.Off, dead)
			}
		}
	}
}

// maybeSurfaceSnapshot journals a periodic observatory snapshot when
// the configured device-time interval has elapsed. The disabled path
// (no dynamic bands, or sampling off) is two field reads and must stay
// allocation-free — the write hot path calls this on every batch.
// Caller holds d.mu.
func (d *DB) maybeSurfaceSnapshot() {
	if !d.surface.enabled || d.surfaceSnapEvery <= 0 {
		return
	}
	now := d.deviceNow()
	if now-d.surfaceSnapAt < d.surfaceSnapEvery {
		return
	}
	d.surfaceSnapshotLocked(now)
}

// surfaceSnapshotLocked journals one space_snapshot event plus a
// band_snapshot event per allocated band. The offline analyzer replays
// the raw allocator events and checks these against its own
// recomputation. Caller holds d.mu.
func (d *DB) surfaceSnapshotLocked(now int64) {
	sp := d.spaceProfileLocked()
	d.journal.Record("space_snapshot", map[string]int64{
		"physical":         sp.PhysicalBytes,
		"logical":          sp.LogicalLiveBytes,
		"dead":             sp.SurfaceDeadBytes,
		"sa_milli":         int64(sp.SpaceAmplification * 1000),
		"frag_index_milli": int64(sp.Frag.Index * 1000),
		"holes":            int64(sp.Frag.Holes),
		"largest_free":     sp.Frag.LargestFree,
		"frontier":         sp.Frag.Frontier,
	})
	for _, r := range d.surface.rows(now) {
		if r.Alloc == 0 {
			continue
		}
		d.journal.Record("band_snapshot", map[string]int64{
			"band":        r.Band,
			"alloc":       r.Alloc,
			"dead":        r.Dead,
			"live":        r.Live,
			"write_bytes": r.WriteBytes,
			"heat_milli":  int64(r.Heat * 1000),
		})
	}
	d.surfaceSnapAt = now
}

// SurfaceSnapshot journals an observatory snapshot immediately,
// regardless of the sampling interval. The trace collector calls it so
// a dump's event window always ends with a snapshot for the analyzer
// to reconcile against. No-op outside dynamic-band mode.
func (d *DB) SurfaceSnapshot() {
	if !d.surface.enabled {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.surfaceSnapshotLocked(d.deviceNow())
}

// VerifySurface recomputes the per-band accounting from the extent
// table (a fresh scan over backend files, set records and pending
// reclaims) and fails if the incrementally maintained observatory
// disagrees anywhere: extent-for-extent, per-band byte-for-byte, and
// on the dead-bytes bounds. The chaos harness calls it after every
// recovery; VerifyIntegrity includes it.
func (d *DB) VerifySurface() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.verifySurfaceLocked()
}
