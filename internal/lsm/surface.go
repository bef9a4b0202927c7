// Storage-surface observatory: per-band live/dead byte accounting over
// the dynamic-band surface, with a device-clock write-heat EWMA,
// owning-set attribution, and a continuous space-amplification counter
// (physical bytes on bands ÷ logical live bytes) next to the existing
// WA/AWA counters.
//
// The accounting is a view, not a mirror: every per-extent number is
// derived on demand, under the engine mutex, from the one scan of the
// state that owns it (ownedExtents, introspect.go), and physical bytes
// come straight from the allocator. The only state kept here is what no
// other structure holds — how many bytes the allocator granted inside
// each band and how recently, fed by the allocator observer.
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

// bandHeat is a band's allocation traffic: writeBytes counts every byte
// granted inside it since the store opened, heat is the same traffic
// decayed to the instant of the last grant.
type bandHeat struct {
	writeBytes int64
	heat       float64
	heatAt     int64 // device-ns of the last grant
}

// surface is the observatory's own state. It hangs off the DB and is
// active only in dynamic-band mode (SEALDB).
//
// Locking: mu is a leaf below both the engine mutex and the allocator
// mutex — grants arrive from the dband observer with dband_manager_mu
// held, reads from the views with lsm_db_mu held. Surface methods never
// call back into the manager, the backend or the DB.
//
// lockorder: lsm_db_mu < band_stats_mu
// lockorder: dband_manager_mu < band_stats_mu
type surface struct {
	enabled bool  // set once before observers install, then read-only
	stride  int64 // band bucket width (Geometry.BandSize)

	mu    obs.Mutex           // profiled as "band_stats_mu"
	bands map[int64]*bandHeat // keyed by band index; guarded by mu
}

// init arms the observatory. Called once from OpenDevice before the
// device observers are installed; stride is the band bucket width.
func (s *surface) init(stride int64) {
	s.enabled = true
	s.stride = stride
	s.mu.Profile("band_stats_mu")
	s.reset()
}

// reset restarts heat and write counters cold. OpenDevice calls it last,
// so the allocator traffic of creation and recovery heats nothing.
func (s *surface) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bands = make(map[int64]*bandHeat)
}

// eachBand visits every band of width stride a byte range overlaps,
// with the overlap length.
func eachBand(stride, off, length int64, fn func(band, overlap int64)) {
	end := off + length
	for b := off / stride; b*stride < end; b++ {
		fn(b, min(end, (b+1)*stride)-max(off, b*stride))
	}
}

// at returns the heat decayed to now. Reading never changes the stored
// state, so what a band's heat is does not depend on who looked at it
// in between.
func (st bandHeat) at(now int64) float64 {
	if dt := now - st.heatAt; dt > 0 && st.heat > 0 {
		return st.heat * math.Exp2(-float64(dt)/float64(surfaceHeatHalfLife))
	}
	return st.heat
}

// wrote records an allocator grant at device time now: the write heats
// every band the extent lands in.
func (s *surface) wrote(off, length, now int64) {
	if !s.enabled {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	eachBand(s.stride, off, length, func(b, overlap int64) {
		st := s.bands[b]
		if st == nil {
			st = &bandHeat{}
			s.bands[b] = st
		}
		st.writeBytes += overlap
		st.heat = st.at(now) + float64(overlap)
		st.heatAt = max(st.heatAt, now)
	})
}

// decayed returns every band's traffic with its heat decayed to now.
func (s *surface) decayed(now int64) map[int64]bandHeat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int64]bandHeat, len(s.bands))
	for b, st := range s.bands {
		out[b] = bandHeat{writeBytes: st.writeBytes, heat: st.at(now)}
	}
	return out
}

// SurfaceExtent is the public form of one owned extent — a plain file
// (SSTable, WAL, manifest, vlog segment) or a whole set group — and the
// baseline the trace analyzer replays allocator events from. Dead
// counts the bytes inside it that are no longer logically live —
// invalidated set members, group slack, vlog garbage — but not yet
// returned to the free list.
type SurfaceExtent struct {
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	Dead int64  `json:"dead,omitempty"`
	Set  uint64 `json:"set,omitempty"`
}

// BandRow is one band of the /debug/bands payload and the
// band_snapshot journal event: the band's share of the owned extents
// joined with its allocation traffic.
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
// remainder to the extent's last band so totals stay exact.
func spreadDead(stride, off, length, dead int64, add func(band, n int64)) {
	if dead <= 0 {
		return
	}
	last := (off + length - 1) / stride
	var assigned int64
	eachBand(stride, off, length, func(b, overlap int64) {
		n := dead * overlap / length
		if b == last {
			n = dead - assigned
		}
		assigned += n
		add(b, n)
	})
}

// bandRowsLocked builds the per-band view: every band holding part of
// an owned extent or residual heat, with allocation bucketed by
// overlap, dead bytes spread, owning sets attributed and heat decayed
// to now. Sorted hottest first, then by live ratio ascending (coldest,
// deadest bands last — the defragmentation victims read off the
// bottom). Caller holds d.mu.
func (d *DB) bandRowsLocked(now int64) []BandRow {
	stride := d.surface.stride
	byBand := map[int64]*BandRow{}
	row := func(b int64) *BandRow {
		r := byBand[b]
		if r == nil {
			r = &BandRow{Band: b, Start: b * stride}
			byBand[b] = r
		}
		return r
	}
	for _, e := range d.ownedExtents() {
		eachBand(stride, e.off, e.len, func(b, overlap int64) {
			r := row(b)
			r.Alloc += overlap
			if e.kind == ownedSet {
				r.Sets = append(r.Sets, e.id)
			}
		})
		spreadDead(stride, e.off, e.len, e.dead, func(b, n int64) { row(b).Dead += n })
	}
	for b, st := range d.surface.decayed(now) {
		if byBand[b] != nil || st.heat >= 1 {
			r := row(b)
			r.WriteBytes, r.Heat = st.writeBytes, st.heat
		}
	}
	rows := make([]BandRow, 0, len(byBand))
	for _, r := range byBand {
		r.Live = r.Alloc - r.Dead
		if r.Alloc > 0 {
			r.LiveRatio = float64(r.Live) / float64(r.Alloc)
		}
		sort.Slice(r.Sets, func(i, j int) bool { return r.Sets[i] < r.Sets[j] })
		rows = append(rows, *r)
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

// ---------------------------------------------------------------------------
// The payloads and the snapshot events.

// VlogSegmentRow is one value-log segment's occupancy in the
// /debug/bands payload — the per-segment accounting the GC pass's
// victim choice (nextJob) reads, surfaced.
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
// per-segment occupancy with the GC's dead budget and its next victim.
type BandProfile struct {
	BandSize   int64             `json:"band_size"`
	Frag       dband.FragProfile `json:"frag"`
	Bands      []BandRow         `json:"bands"`
	Vlog       []VlogSegmentRow  `json:"vlog,omitempty"`
	VlogGCDead float64           `json:"vlog_gc_dead_ratio,omitempty"` // the share of the sealed log's record bytes that may be dead before a pass runs
	VlogVictim uint64            `json:"vlog_gc_victim,omitempty"`     // the segment the next pass takes: 0 while the log is within budget
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

// spaceProfileLocked computes the space-amplification profile.
// Caller holds d.mu.
func (d *DB) spaceProfileLocked() SpaceProfile {
	var p SpaceProfile
	if !d.surface.enabled {
		return p
	}
	cur := d.vs.Current()
	for l := 0; l < d.cfg.NumLevels; l++ {
		p.TableBytes += cur.LevelBytes(l) // the LSM tree's logical footprint
	}
	if d.cfg.vlogEnabled() {
		p.VlogLiveBytes, _, _ = d.vlogTotals()
	}
	p.LogicalLiveBytes = p.TableBytes + p.VlogLiveBytes
	p.PhysicalBytes = d.dev.DBand.AllocatedBytes()
	for _, e := range d.ownedExtents() {
		p.SurfaceDeadBytes += e.dead
	}
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
	p.Bands = d.bandRowsLocked(d.deviceNow())
	if d.cfg.vlogEnabled() {
		p.VlogGCDead = vlogGCDeadBudget
		vic, _ := d.vs.VlogVictim(vlogGCDeadBudget) // the zero segment when none is due
		p.VlogVictim = vic.Num
		for _, seg := range d.vlogSegs() {
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

// SurfaceExtents returns every extent the store owns, sorted by offset
// — the baseline the offline analyzer replays allocator events from.
// Nil outside dynamic-band mode.
func (d *DB) SurfaceExtents() []SurfaceExtent {
	if !d.surface.enabled {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	owned := d.ownedExtents()
	out := make([]SurfaceExtent, len(owned))
	for i, e := range owned {
		out[i] = SurfaceExtent{Off: e.off, Len: e.len, Dead: e.dead}
		if e.kind == ownedSet {
			out[i].Set = e.id
		}
	}
	return out
}

// SurfaceSnapshot journals the observatory's state now: one
// space_snapshot event plus a band_snapshot event per allocated band.
// The trace collector calls it so a dump's event window ends with the
// state the offline analyzer checks its allocator-event replay against.
// No-op outside dynamic-band mode.
func (d *DB) SurfaceSnapshot() {
	if !d.surface.enabled {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
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
	for _, r := range d.bandRowsLocked(d.deviceNow()) {
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
}
