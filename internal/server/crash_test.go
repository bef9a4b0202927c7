package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sealdb/internal/faultfs"
	"sealdb/internal/lsm"
	"sealdb/internal/sealclient"
	"sealdb/internal/smr"
)

// openInjected opens a DB on a fresh device with a faultfs injector
// spliced into the drive stack, mirroring the crashtest harness.
func openInjected(t *testing.T, mutate func(*lsm.Config)) (*faultfs.Drive, *lsm.Device, *lsm.DB, lsm.Config) {
	t.Helper()
	var fd *faultfs.Drive
	cfg := lsm.DefaultConfig(lsm.ModeSEALDB)
	cfg.WrapDrive = func(inner smr.Drive) smr.Drive {
		fd = faultfs.New(inner, 42)
		return fd
	}
	if mutate != nil {
		mutate(&cfg)
	}
	dev := lsm.NewDevice(cfg)
	db, err := lsm.OpenDevice(cfg, dev)
	if err != nil {
		t.Fatalf("open injected db: %v", err)
	}
	return fd, dev, db, cfg
}

// TestServerPowerCutMidPipeline cuts device power while pipelined
// client writes are in flight and checks the full contract: clients
// get clean errors (not hangs), the store's degraded mode surfaces as
// the distinct wire status, and after power-on and recovery every
// write the server acknowledged is present.
func TestServerPowerCutMidPipeline(t *testing.T) {
	fd, dev, db, cfg := openInjected(t, nil)
	srv, err := Serve(db, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	c, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{
		Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Arm the cut a few dozen device writes out, then drive pipelined
	// writes from two goroutines until both hit the failure.
	fd.CutAtWrite(40)
	var mu sync.Mutex
	acked := map[string]string{}
	var firstErrs []error
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("g%d-key%06d", g, i)
				v := fmt.Sprintf("g%d-val%06d", g, i)
				if err := c.Put([]byte(k), []byte(v)); err != nil {
					mu.Lock()
					firstErrs = append(firstErrs, err)
					mu.Unlock()
					return
				}
				mu.Lock()
				acked[k] = v
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if len(firstErrs) != 2 {
		t.Fatalf("both writers should have failed; got %d errors, %d acked writes", len(firstErrs), len(acked))
	}
	if len(acked) == 0 {
		t.Fatal("no writes acknowledged before the cut; cut landed too early")
	}
	// Clean failures only: an engine error surfaced through a reply
	// frame (degraded or internal), never a timeout or a hang.
	for _, err := range firstErrs {
		if errors.Is(err, sealclient.ErrTimeout) {
			t.Fatalf("writer failed with a timeout, want a surfaced engine error: %v", err)
		}
	}

	// The store is now degraded: further writes must map to the
	// distinct wire status, and reads must keep serving.
	if err := c.Put([]byte("post-cut"), []byte("x")); !errors.Is(err, sealclient.ErrDegraded) {
		t.Fatalf("post-cut Put err = %v, want ErrDegraded", err)
	}
	var someKey, someVal string
	for k, v := range acked {
		someKey, someVal = k, v
		break
	}
	if v, err := c.Get([]byte(someKey)); err != nil || string(v) != someVal {
		t.Fatalf("degraded store stopped serving reads: Get(%q) = (%q, %v)", someKey, v, err)
	}
	raw, err := c.Stats()
	if err != nil {
		t.Fatalf("stats on degraded store: %v", err)
	}
	var stats struct {
		Degraded      bool   `json:"degraded"`
		DegradedCause string `json:"degraded_cause"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if !stats.Degraded || stats.DegradedCause == "" {
		t.Fatalf("STATS does not surface degraded mode: %+v", stats)
	}

	// Kill the server, power the device back on, recover, and hold the
	// durability line: every acknowledged write must be present. The
	// doomed DB instance is dropped without Close, as a dead host's
	// would be.
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	fd.PowerOn()
	db2, err := lsm.OpenDevice(cfg, dev)
	if err != nil {
		t.Fatalf("reopen after power cut: %v", err)
	}
	defer db2.Close()
	if err := db2.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after recovery: %v", err)
	}
	for k, v := range acked {
		got, err := db2.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("acked write %q lost across the crash: (%q, %v)", k, got, err)
		}
	}
}

// TestServerTransientWriteFaults serves through a device that fails a
// fraction of writes transiently: the engine's write retries absorb
// them, and every client request must still succeed, end to end.
func TestServerTransientWriteFaults(t *testing.T) {
	fd, _, db, _ := openInjected(t, nil)
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	fd.Inject(faultfs.Rule{Op: faultfs.OpWrite, Probability: 0.05, Temporary: true})

	c, err := sealclient.Dial(srv.Addr().String(), sealclient.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("t%d-key%05d", g, i))
				v := []byte(fmt.Sprintf("t%d-val%05d", g, i))
				if err := c.Put(k, v); err != nil {
					select {
					case errCh <- fmt.Errorf("Put(%q): %w", k, err):
					default:
					}
					return
				}
				if got, err := c.Get(k); err != nil || string(got) != string(v) {
					select {
					case errCh <- fmt.Errorf("Get(%q) = (%q, %v)", k, got, err):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("request failed despite transient-fault retries: %v", err)
	default:
	}
	if n := fd.FaultStats()["injected_write_errors"]; n == 0 {
		t.Fatal("no write faults fired; the profile exercised nothing")
	}
}
