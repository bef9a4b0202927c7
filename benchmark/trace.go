package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sealdb/internal/smr"
)

// Span names. An op span is the client's call (sealclient over TCP, the
// engine's Get/Put/Delete/Scan in process); a drive span is one
// smr.Drive call seen by the Config.WrapDrive wrapper.
const (
	spanRun uint8 = iota
	spanGet
	spanPut
	spanDelete
	spanScan
	spanDriveRead
	spanDriveWrite
	numSpanNames
)

var spanNames = [numSpanNames]string{"run", "get", "put", "delete", "scan", "drive_read", "drive_write"}

// span is one record of the traced run. Times are wall nanoseconds
// since the trace began; dev is simulated device nanoseconds (for an op
// span, the sum over its drive calls).
type span struct {
	name   uint8
	parent int32 // index of the parent span, -1 for the root
	req    uint32
	start  int64
	end    int64
	dev    int64
	bytes  int32
}

const spanRecordSize = 1 + 4 + 4 + 8 + 8 + 8 + 4

// tracer collects spans in memory. With one client everything runs on
// the client's goroutine, so a drive call belongs to the op in flight
// and no lock is needed. With two clients drive calls come from server
// goroutines: they are parented to the root and the lock is taken.
type tracer struct {
	t0     time.Time
	shared bool
	on     bool     // recording: set for the measured phase only
	ops    [][]span // per client, indexed by op number
	phase  span     // the root

	mu     sync.Mutex // taken for the fields below when shared
	drives []span     // parent is client 0's op number, -1 for the root
	cur    int32      // op in flight (single client), else -1
	opDev  int64      // device ns of the op in flight
	// Whole-phase drive totals.
	driveWall             int64
	readCalls, writeCalls int64
	readBytes, writeBytes int64
}

func newTracer(in *inputs) *tracer {
	t := &tracer{shared: len(in.streams) > 1, cur: -1}
	total := 0
	for _, s := range in.streams {
		t.ops = append(t.ops, make([]span, s.len()))
		total += s.len()
	}
	t.drives = make([]span, 0, 2*total)
	return t
}

// begin starts recording; the root span covers the measured phase.
func (t *tracer) begin() {
	t.t0 = time.Now()
	t.phase = span{name: spanRun, parent: -1}
	t.on = true
}

func (t *tracer) end() {
	t.on = false
	t.phase.end = int64(time.Since(t.t0))
}

// opBegin marks client 0's op i as the one in flight, so that drive
// calls are parented to it. Only meaningful with a single client.
func (t *tracer) opBegin(i int) {
	if !t.shared {
		t.cur, t.opDev = int32(i), 0
	}
}

// opEnd records client c's op i. The caller timed the call itself and
// hands over the same instants, so tracing adds no clock reads to it.
func (t *tracer) opEnd(c, i int, kind opKind, start, end time.Time) {
	s := span{name: spanGet + uint8(kind), parent: -1, req: uint32(i*len(t.ops) + c),
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))}
	if !t.shared {
		s.dev = t.opDev
		t.cur = -1
	}
	t.ops[c][i] = s
}

func (t *tracer) drive(name uint8, start time.Time, wall, dev time.Duration, n int) {
	if !t.on {
		return
	}
	if t.shared {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	st := int64(start.Sub(t.t0))
	t.drives = append(t.drives, span{name: name, parent: t.cur, start: st, end: st + int64(wall), dev: int64(dev), bytes: int32(n)})
	t.opDev += int64(dev)
	t.driveWall += int64(wall)
	if name == spanDriveRead {
		t.readCalls++
		t.readBytes += int64(n)
	} else {
		t.writeCalls++
		t.writeBytes += int64(n)
	}
}

// each calls fn on every span in file order: the root, every client's
// ops, then the drive calls, with parents rewritten to file indexes.
func (t *tracer) each(fn func(span)) {
	fn(t.phase)
	for _, ops := range t.ops {
		for _, s := range ops {
			s.parent = 0
			fn(s)
		}
	}
	for _, s := range t.drives {
		if s.parent >= 0 {
			s.req = t.ops[0][s.parent].req
		}
		s.parent++ // op i of client 0 is span 1+i; the root is span 0
		fn(s)
	}
}

// tracedDrive is the Config.WrapDrive wrapper: it sits directly on the
// raw SMR drive, below the engine's retry layer.
type tracedDrive struct {
	smr.Drive
	t *tracer
}

func (d *tracedDrive) Unwrap() smr.Drive { return d.Drive }

func (d *tracedDrive) WriteAt(p []byte, off int64) (time.Duration, error) {
	start := time.Now()
	dev, err := d.Drive.WriteAt(p, off)
	d.t.drive(spanDriveWrite, start, time.Since(start), dev, len(p))
	return dev, err
}

func (d *tracedDrive) ReadAt(p []byte, off int64) (time.Duration, error) {
	start := time.Now()
	dev, err := d.Drive.ReadAt(p, off)
	d.t.drive(spanDriveRead, start, time.Since(start), dev, len(p))
	return dev, err
}

// spanFileHeader is the first line of a span file; fixed-size
// little-endian records follow (see writeSpans).
type spanFileHeader struct {
	Format     string   `json:"format"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Names      []string `json:"names"`
	RecordSize int      `json:"record_size"`
	Fields     string   `json:"fields"`
	Spans      int      `json:"spans"`
}

const spanFormat = "sealdb-benchmark-spans/v1"

// writeSpans writes the spans collected in memory, at exit: one JSON
// header line, then one 37-byte record per span.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hdr, _ := json.Marshal(spanFileHeader{
		Format: spanFormat, Workload: workload, Seed: seed, Names: spanNames[:],
		RecordSize: spanRecordSize, Spans: t.count(),
		Fields: "name u8, parent i32 (index, -1 root), request u32, start_ns i64, end_ns i64, device_ns i64, bytes i32",
	})
	w.Write(hdr)
	w.WriteByte('\n')
	var rec [spanRecordSize]byte
	t.each(func(s span) {
		rec[0] = s.name
		binary.LittleEndian.PutUint32(rec[1:], uint32(s.parent))
		binary.LittleEndian.PutUint32(rec[5:], s.req)
		binary.LittleEndian.PutUint64(rec[9:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[17:], uint64(s.end))
		binary.LittleEndian.PutUint64(rec[25:], uint64(s.dev))
		binary.LittleEndian.PutUint32(rec[33:], uint32(s.bytes))
		w.Write(rec[:])
	})
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeSpans prints a span file as JSON lines, up to limit spans.
func decodeSpans(path string, limit int, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	line, err := r.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("reading span header: %w", err)
	}
	var hdr spanFileHeader
	if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != spanFormat || hdr.RecordSize != spanRecordSize {
		return fmt.Errorf("%s: not a %s file", path, spanFormat)
	}
	w := bufio.NewWriter(out)
	defer w.Flush()
	w.Write(line)
	var rec [spanRecordSize]byte
	for i := 0; i < hdr.Spans && i < limit; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return fmt.Errorf("span %d: %w", i, err)
		}
		name := "?"
		if int(rec[0]) < len(hdr.Names) {
			name = hdr.Names[rec[0]]
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"request":%d,"start_ns":%d,"end_ns":%d,"device_ns":%d,"bytes":%d}`+"\n",
			i, name, int32(binary.LittleEndian.Uint32(rec[1:])), binary.LittleEndian.Uint32(rec[5:]),
			int64(binary.LittleEndian.Uint64(rec[9:])), int64(binary.LittleEndian.Uint64(rec[17:])),
			int64(binary.LittleEndian.Uint64(rec[25:])), int32(binary.LittleEndian.Uint32(rec[33:])))
	}
	return nil
}

// count returns how many spans the trace holds.
func (t *tracer) count() int {
	n := 1 + len(t.drives)
	for _, ops := range t.ops {
		n += len(ops)
	}
	return n
}
