package crashtest

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"sealdb/internal/kv"
	"sealdb/internal/lsm"
	"sealdb/internal/smr"
)

// lossyDrive acknowledges the first write that carries payload without
// storing it: a drive that loses one acknowledged write.
type lossyDrive struct {
	smr.Drive
	payload []byte
	dropped bool
}

func (d *lossyDrive) WriteAt(p []byte, off int64) (time.Duration, error) {
	if !d.dropped && bytes.Contains(p, d.payload) {
		d.dropped = true
		return 0, nil
	}
	return d.Drive.WriteAt(p, off)
}

func (d *lossyDrive) Unwrap() smr.Drive { return d.Drive }

// fatalRecorder is a testing.TB whose Fatalf records the message and
// ends the calling goroutine, as testing's own Fatalf does.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Fatalf(format string, args ...any) {
	r.msg = fmt.Sprintf(format, args...)
	runtime.Goexit()
}

// runRecorded runs the sweep on its own goroutine and returns its
// summary and the message of the Fatalf that ended it, or "" if it
// passed.
func runRecorded(t *testing.T, cfg Config) (Result, string) {
	rec := &fatalRecorder{TB: t}
	var res Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = Run(rec, cfg)
	}()
	<-done
	return res, rec.msg
}

// TestRunCatchesALostWrite shows the recovery-contract check can still
// fail: the same sweep that passes on a faithful drive fails once the
// drive under the injector drops the log write of one acknowledged Put.
func TestRunCatchesALostWrite(t *testing.T) {
	cfg := Config{
		DB: lsm.Config{
			Mode:     lsm.ModeSEALDB,
			Geometry: lsm.ScaledGeometry(8*kv.KiB, 256*kv.MiB),
			Seed:     1,
		},
		Seed:   42,
		Ops:    Workload(42, 150, 60),
		Stride: 7,
	}
	if res, msg := runRecorded(t, cfg); msg != "" || res.Cuts == 0 {
		t.Fatalf("sweep on a faithful drive: %s (%s)", msg, res)
	}

	// The first Put's value reaches the device first in its log record;
	// the script's first flush comes 30 ops later.
	var payload []byte
	for _, op := range cfg.Ops {
		if op.Kind == OpPut {
			payload = op.Vals[0]
			break
		}
	}
	cfg.DB.WrapDrive = func(inner smr.Drive) smr.Drive {
		return &lossyDrive{Drive: inner, payload: payload}
	}
	_, msg := runRecorded(t, cfg)
	if !strings.HasPrefix(msg, "crashtest: cut ") {
		t.Fatalf("sweep over a drive that loses an acknowledged write: %q, want a failed cut", msg)
	}
	t.Logf("caught: %s", msg)
}
