package lsm

import (
	"sealdb/internal/smr"
)

// LevelAmplification is one level's continuous write-amplification
// accounting: the logical bytes flushes/compactions have written into
// the level and read back out of it, and the level's share of overall
// WA (WriteBytes / UserBytes).
type LevelAmplification struct {
	Level      int     `json:"level"`
	Files      int     `json:"files"`
	Bytes      int64   `json:"bytes"`
	WriteBytes int64   `json:"write_bytes"`
	ReadBytes  int64   `json:"read_bytes"`
	WA         float64 `json:"wa"`
}

// CompactionAmplification is one compaction's (or flush's) own
// amplification: logical WA as OutputBytes/InputBytes and device-level
// AWA as DeviceBytes/HostBytes, both from exact per-compaction deltas.
type CompactionAmplification struct {
	ID          int     `json:"id"`
	FromLevel   int     `json:"from_level"`
	ToLevel     int     `json:"to_level"`
	InputBytes  int64   `json:"input_bytes"`
	OutputBytes int64   `json:"output_bytes"`
	HostBytes   int64   `json:"host_bytes"`
	DeviceBytes int64   `json:"device_bytes"`
	WA          float64 `json:"wa"`
	AWA         float64 `json:"awa"`
	Flush       bool    `json:"flush,omitempty"`
	TrivialMove bool    `json:"trivial_move,omitempty"`
}

// VlogAmplification is the value-log's share of write traffic when
// key–value separation is on: user-batch appends, GC rewrites, and
// the live/dead segment census the GC victim picker works from.
type VlogAmplification struct {
	AppendBytes int64 `json:"append_bytes"`
	GCRuns      int64 `json:"gc_runs"`
	GCBytes     int64 `json:"gc_bytes"`
	Segments    int   `json:"segments"`
	LiveBytes   int64 `json:"live_bytes"`
	DeadBytes   int64 `json:"dead_bytes"`
}

// AmplificationProfile is the /debug/amplification payload: the
// overall Table-I figures, the per-level continuous WA counters, the
// most recent per-compaction WA/AWA records, the value-log breakdown
// when key–value separation is on, and the fixed-band drive's
// media-cache state when the mode has one.
type AmplificationProfile struct {
	Overall     Amplification             `json:"overall"`
	Levels      []LevelAmplification      `json:"levels"`
	Compactions []CompactionAmplification `json:"recent_compactions"`
	Vlog        *VlogAmplification        `json:"vlog,omitempty"`
	MediaCache  *smr.MediaCacheStats      `json:"media_cache,omitempty"`
}

// recentCompactionWindow bounds the per-compaction records served by
// AmplificationProfile to the most recent entries.
const recentCompactionWindow = 64

// AmplificationProfile reports the continuous amplification
// accounting. Do not call while holding d.mu (it takes it).
func (d *DB) AmplificationProfile() AmplificationProfile {
	p := AmplificationProfile{Overall: d.Amplification()}

	d.mu.Lock()
	levels := make([]LevelAmplification, d.cfg.NumLevels)
	cur := d.vs.Current()
	for l := 0; l < d.cfg.NumLevels; l++ {
		levels[l] = LevelAmplification{
			Level: l,
			Files: cur.NumFiles(l),
			Bytes: cur.LevelBytes(l),
		}
	}
	comps := d.compactions
	if len(comps) > recentCompactionWindow {
		comps = comps[len(comps)-recentCompactionWindow:]
	}
	comps = append([]CompactionInfo(nil), comps...)
	if d.cfg.vlogEnabled() {
		va := &VlogAmplification{
			AppendBytes: d.metrics.vlogAppendBytes.Value(),
			GCRuns:      d.metrics.vlogGCRuns.Value(),
			GCBytes:     d.metrics.vlogGCRelocated.Value(),
		}
		va.LiveBytes, va.DeadBytes, va.Segments = d.vlog.tab.Totals()
		p.Vlog = va
	}
	d.mu.Unlock()

	for l := range levels {
		levels[l].WriteBytes = d.metrics.levelWriteBytes[l].Value()
		levels[l].ReadBytes = d.metrics.levelReadBytes[l].Value()
		if p.Overall.UserBytes > 0 {
			levels[l].WA = float64(levels[l].WriteBytes) / float64(p.Overall.UserBytes)
		}
	}
	p.Levels = levels

	p.Compactions = make([]CompactionAmplification, 0, len(comps))
	for _, ci := range comps {
		ca := CompactionAmplification{
			ID: ci.ID, FromLevel: ci.FromLevel, ToLevel: ci.ToLevel,
			InputBytes: ci.InputBytes, OutputBytes: ci.OutputBytes,
			HostBytes: ci.HostBytes, DeviceBytes: ci.DeviceBytes,
			Flush: ci.Flush, TrivialMove: ci.TrivialMove,
		}
		if ci.InputBytes > 0 {
			ca.WA = float64(ci.OutputBytes) / float64(ci.InputBytes)
		}
		if ci.HostBytes > 0 {
			ca.AWA = float64(ci.DeviceBytes) / float64(ci.HostBytes)
		}
		p.Compactions = append(p.Compactions, ca)
	}

	if fbd, ok := smr.Base(d.drive).(*smr.FixedBandDrive); ok {
		mc := fbd.MediaCacheStats()
		p.MediaCache = &mc
	}
	return p
}
