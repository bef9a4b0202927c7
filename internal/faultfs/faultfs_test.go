package faultfs

import (
	"bytes"
	"errors"
	"testing"

	"sealdb/internal/platter"
	"sealdb/internal/smr"
)

func newFaultDrive(t *testing.T, seed int64) (*Drive, smr.Drive) {
	t.Helper()
	disk := platter.New(platter.DefaultConfig(1 << 20))
	raw := smr.NewRaw(disk, 4096)
	return New(raw, seed), raw
}

func TestPowerCutTearsInFlightWrite(t *testing.T) {
	d, raw := newFaultDrive(t, 42)
	if _, err := d.WriteAt([]byte("first acknowledged write"), 0); err != nil {
		t.Fatalf("setup write: %v", err)
	}

	d.CutAtWrite(1)
	payload := bytes.Repeat([]byte{0xAB}, 1024)
	_, err := d.WriteAt(payload, 64*1024)
	if !errors.Is(err, ErrPowerCut) {
		t.Fatalf("cut write returned %v, want ErrPowerCut", err)
	}
	if !d.Down() {
		t.Fatal("device still up after power cut")
	}
	if _, err := d.WriteAt([]byte("x"), 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("post-cut write returned %v", err)
	}
	if _, err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("post-cut read returned %v", err)
	}

	// The torn write must be a strict prefix on the platter: bytes
	// [0, keep) equal the payload, bytes [keep, len) untouched (zero).
	got := make([]byte, len(payload))
	if _, err := raw.Disk().ReadAt(got, 64*1024); err != nil {
		t.Fatalf("platter read: %v", err)
	}
	keep := 0
	for keep < len(got) && got[keep] == 0xAB {
		keep++
	}
	for i := keep; i < len(got); i++ {
		if got[i] != 0 {
			t.Fatalf("non-prefix tear: byte %d = %#x with prefix %d", i, got[i], keep)
		}
	}
	st := d.FaultStats()
	if st["power_cuts"] != 1 {
		t.Errorf("power_cuts = %d", st["power_cuts"])
	}
	if st["torn_bytes_dropped"] != int64(len(payload)-keep) {
		t.Errorf("torn_bytes_dropped = %d, want %d", st["torn_bytes_dropped"], len(payload)-keep)
	}

	d.PowerOn()
	if _, err := d.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("read after PowerOn: %v", err)
	}
	// The torn region was never acked, so its validity was never
	// recorded: a rewrite of the same span must not collide.
	if _, err := d.WriteAt(payload, 64*1024); err != nil {
		t.Fatalf("rewrite of torn span: %v", err)
	}
}

func TestCutScheduleIsDeterministic(t *testing.T) {
	run := func(seed int64) (int64, []byte) {
		d, raw := newFaultDrive(t, seed)
		d.CutAtWrite(3)
		for i := 0; ; i++ {
			_, err := d.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, 512), int64(i)*8192)
			if err != nil {
				break
			}
		}
		img := make([]byte, 3*8192)
		raw.Disk().ReadAt(img, 0)
		return d.FaultStats()["torn_bytes_dropped"], img
	}
	torn1, img1 := run(7)
	torn2, img2 := run(7)
	if torn1 != torn2 || !bytes.Equal(img1, img2) {
		t.Fatal("same seed produced different torn images")
	}
	torn3, _ := run(8)
	if torn1 == torn3 {
		t.Log("different seeds tore identically (possible but unlikely); not failing")
	}
}

func TestInjectedErrorsByRangeCountAndKind(t *testing.T) {
	d, _ := newFaultDrive(t, 1)
	d.Inject(Rule{Op: OpWrite, Off: 4096, Len: 4096, Count: 2, Temporary: true})

	if _, err := d.WriteAt([]byte("outside"), 0); err != nil {
		t.Fatalf("write outside fault range: %v", err)
	}
	for i := 0; i < 2; i++ {
		_, err := d.WriteAt([]byte("inside"), 5000)
		if err == nil {
			t.Fatalf("write %d inside fault range succeeded", i)
		}
		if !smr.IsTransient(err) {
			t.Fatalf("transient rule produced non-transient error: %v", err)
		}
	}
	// Count exhausted: next write in range succeeds... but offset
	// 5000 overlaps the earlier failed-write validity? No: failed
	// writes never reached the raw drive, so nothing was marked.
	if _, err := d.WriteAt([]byte("inside"), 5000); err != nil {
		t.Fatalf("write after count exhausted: %v", err)
	}

	d.Inject(Rule{Op: OpRead, Temporary: false, Count: 1})
	_, err := d.ReadAt(make([]byte, 8), 0)
	if err == nil {
		t.Fatal("injected read error did not fire")
	}
	if smr.IsTransient(err) {
		t.Fatalf("permanent rule produced transient error: %v", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Op != string(OpRead) {
		t.Fatalf("error lost its injection identity: %v", err)
	}
}

func TestRetryLayerHealsInjectedTransients(t *testing.T) {
	d, _ := newFaultDrive(t, 1)
	d.Inject(Rule{Op: OpWrite, Count: 2, Temporary: true})
	r := smr.NewRetry(d, 3)

	if _, err := r.WriteAt([]byte("persist me"), 0); err != nil {
		t.Fatalf("retry layer did not heal transient faults: %v", err)
	}
	if st := r.Stats(); st.Recovered != 1 {
		t.Errorf("retry stats = %+v", st)
	}
}

func TestFlipBitCorruptsPlatter(t *testing.T) {
	d, raw := newFaultDrive(t, 1)
	if _, err := d.WriteAt([]byte{0x00}, 128); err != nil {
		t.Fatal(err)
	}
	if err := d.FlipBit(128, 3); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	raw.Disk().ReadAt(b, 128)
	if b[0] != 1<<3 {
		t.Fatalf("bit flip produced %#x", b[0])
	}
	if d.FaultStats()["bit_flips"] != 1 {
		t.Error("bit_flips counter not bumped")
	}
}
