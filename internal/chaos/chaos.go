// Package chaos is SEALDB's combined-fault campaign harness. A
// campaign drives N concurrent sealclient workers over real TCP
// against a server running on a fault-injected device, composing
// disk errors, network faults, bit flips, and mid-pipeline power
// cuts round by round, and records every operation invocation into a
// history (internal/chaos/history) whose safety checker runs after
// every recovery.
//
// Determinism is the harness's core property: everything — the
// schedule, the fault points, the values written, the outcome of
// every operation — derives from Config.Seed, so `sealdb-chaos -seed
// S` replays a failure byte-for-byte. The design choices that make
// that true over a real network and a real (emulated) device:
//
//   - Lockstep ticks: a round is a sequence of ticks separated by
//     barriers; faults are armed only at barriers, when nothing is in
//     flight.
//   - One writer per tick, issuing its burst sequentially on a single
//     connection, so every engine group commit holds just its one
//     batch and the device write sequence is a pure function of the
//     schedule. Other workers are concurrent readers.
//   - Single-writer-per-key sharding, and readers never target the
//     current tick's writer, so no read races a write to the same key.
//   - Power cuts and device-error rules fire on write counts inside
//     solo ticks (only the victim runs), so which op eats the fault
//     is fixed.
//   - Logical timestamps (tick, worker, seq); the history carries no
//     wall-clock content at all.
package chaos

import (
	"fmt"
	"io"
	"strings"
)

// FaultSet selects which fault classes a campaign cycles through.
type FaultSet struct {
	// Crash: a mid-burst power cut tears a device write, the DB is
	// dropped without Close, and recovery must work from media alone.
	Crash bool
	// Net: the per-worker frame proxy drops, resets, delays, and
	// truncates wire frames.
	Net bool
	// Disk: transient and permanent injected device write errors.
	Disk bool
	// Flip: one bit of a live SSTable is flipped for a round and the
	// read path must surface CORRUPT, never a wrong value.
	Flip bool
}

// AllFaults enables every class.
func AllFaults() FaultSet { return FaultSet{Crash: true, Net: true, Disk: true, Flip: true} }

func (f FaultSet) String() string {
	var parts []string
	if f.Crash {
		parts = append(parts, "crash")
	}
	if f.Net {
		parts = append(parts, "net")
	}
	if f.Disk {
		parts = append(parts, "disk")
	}
	if f.Flip {
		parts = append(parts, "flip")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseFaults parses a -faults flag value: "all", "none", or a
// comma-separated subset of crash,net,disk,flip.
func ParseFaults(s string) (FaultSet, error) {
	switch strings.TrimSpace(s) {
	case "", "all":
		return AllFaults(), nil
	case "none":
		return FaultSet{}, nil
	}
	var f FaultSet
	for _, p := range strings.Split(s, ",") {
		switch strings.TrimSpace(p) {
		case "crash":
			f.Crash = true
		case "net":
			f.Net = true
		case "disk":
			f.Disk = true
		case "flip":
			f.Flip = true
		default:
			return FaultSet{}, fmt.Errorf("chaos: unknown fault class %q (want crash, net, disk, flip, all, none)", p)
		}
	}
	return f, nil
}

// Config parameterizes one campaign. Zero fields take the documented
// defaults; Faults zero means no fault rounds (graceful cycles only).
type Config struct {
	// Seed drives every random choice in the campaign (0 means 1).
	Seed int64
	// Rounds is the number of serve/fault/recover/check cycles
	// (default 6).
	Rounds int
	// Clients is the number of concurrent workers, each with its own
	// TCP connection through its own fault proxy (default 4).
	Clients int
	// Ticks is the number of lockstep ticks per round (default 10).
	Ticks int
	// Burst is the number of writes the tick's writer issues
	// (default 6).
	Burst int
	// KeysPerWorker sizes each worker's private key shard (default 8).
	KeysPerWorker int
	// ValueSize pads every value to this size (default 512).
	ValueSize int
	// Vlog runs the campaign in the value-separated mode: the engine
	// stores values of 64 bytes and up in the value log (every
	// campaign value, at the default ValueSize), so faults land in
	// value-log group writes and rotations, and recovery exercises
	// replay from the value log and pointer/segment reconciliation.
	Vlog bool
	// Faults selects the fault classes to cycle through.
	Faults FaultSet
	// Log, if set, receives one progress line per round. Wall-clock
	// free; it never feeds the history.
	Log io.Writer
}

func (c *Config) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Ticks <= 0 {
		c.Ticks = 10
	}
	if c.Burst <= 0 {
		c.Burst = 6
	}
	if c.KeysPerWorker <= 0 {
		c.KeysPerWorker = 8
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 512
	}
}
