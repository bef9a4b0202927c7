// Storage-surface observatory: per-band live/dead byte accounting over
// the dynamic-band surface, owning-set attribution, and a continuous
// space-amplification counter (physical bytes on bands ÷ logical live
// bytes) next to the existing WA/AWA counters.
//
// The observatory keeps no state of its own. Every number is derived
// on demand, under the engine mutex, from the one scan of the state
// that owns it (ownedExtents, introspect.go), and physical bytes and
// fragmentation come straight from the allocator. It is active only in
// dynamic-band mode (SEALDB, d.dev.DBand != nil), with the band stride
// Config.BandSize.
package lsm

import (
	"sort"

	"sealdb/internal/dband"
)

// eachBand visits every band of width stride a byte range overlaps,
// with the overlap length.
func eachBand(stride, off, length int64, fn func(band, overlap int64)) {
	end := off + length
	for b := off / stride; b*stride < end; b++ {
		fn(b, min(end, (b+1)*stride)-max(off, b*stride))
	}
}

// BandRow is one band of the /debug/bands payload: the band's share of
// the owned extents.
type BandRow struct {
	Band      int64    `json:"band"`
	Start     int64    `json:"start"`
	Alloc     int64    `json:"alloc_bytes"`
	Dead      int64    `json:"dead_bytes"`
	Live      int64    `json:"live_bytes"`
	LiveRatio float64  `json:"live_ratio"`
	Sets      []uint64 `json:"sets,omitempty"`
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
// an owned extent, with allocation bucketed by overlap, dead bytes
// spread and owning sets attributed. Sorted by live ratio ascending,
// then by band: the deadest bands, the defragmentation victims, come
// first. Caller holds d.mu.
func (d *DB) bandRowsLocked() []BandRow {
	stride := d.cfg.BandSize
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
	rows := make([]BandRow, 0, len(byBand))
	for _, r := range byBand {
		r.Live = r.Alloc - r.Dead
		r.LiveRatio = float64(r.Live) / float64(r.Alloc)
		sort.Slice(r.Sets, func(i, j int) bool { return r.Sets[i] < r.Sets[j] })
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].LiveRatio != rows[j].LiveRatio {
			return rows[i].LiveRatio < rows[j].LiveRatio
		}
		return rows[i].Band < rows[j].Band
	})
	return rows
}

// ---------------------------------------------------------------------------
// The payloads.

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
// every band sorted by live ratio, and (in vlog mode) the
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
	if d.dev.DBand == nil {
		return p
	}
	cur := d.vs.Current()
	for l := 0; l < d.cfg.NumLevels(); l++ {
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
	if d.dev.DBand == nil {
		return p
	}
	p.BandSize = d.cfg.BandSize
	p.Frag = d.dev.DBand.FragProfile()
	p.Bands = d.bandRowsLocked()
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
