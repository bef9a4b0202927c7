// Package vlog implements SEALDB's value log: the WiscKey-style
// key–value separation layer that keeps large values out of the LSM
// tree. Values above the engine's threshold are appended to segment
// files — framed, checksummed logs whose extents come from the
// dynamic-band allocator — and the tree stores a fixed-size Pointer
// in their place.
//
// The value log is also the write-ahead log of every batch that
// separates a value: such a batch is written whole, in one device
// write, as a group — its value records followed by a commit frame
// carrying the rest of the batch. Recovery replays groups; a torn
// write lacks its frame and is dropped whole.
//
// This package owns the mechanical pieces: the segment header, the
// record and frame wire formats and their CRCs, the Pointer codec, a
// Writer that builds a group and appends it to a segment in one write,
// and a Scanner that walks a segment's groups and finds the torn tail
// after a crash. Which segments exist and how dead each is belongs to
// the manifest (internal/version); policy — when to separate, what a
// frame's payload means, when to collect, how to repair pointers —
// lives in internal/lsm, which drives these types under the engine
// lock.
//
// Segment layout (format version 2; all integers little-endian):
//
//	segment := header group*
//	header  := "SVLG" version:uint32
//	group   := record* frame
//	record  := crc:uint32 0x01 klen:uvarint vlen:uvarint key value
//	frame   := crc:uint32 0x02 rbytes:uvarint plen:uvarint payload
//
// A crc is the masked CRC-32C over seed(segment) ‖ everything after
// the crc field. Seeding with the segment's file number, like the
// WAL's tagged frames, makes a record sitting at the right offset of
// the wrong (recycled) segment fail its checksum instead of decoding
// as live data. A frame's rbytes is the total length of the records
// before it in its group, so a frame vouches for exactly the records
// written with it; its payload is opaque here (the engine stores the
// batch header and the entries that stayed out of the log).
package vlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrCorrupt reports a record, frame or group that failed structural
// or checksum validation. During tail recovery it marks the torn
// point; anywhere else it is real corruption.
var ErrCorrupt = errors.New("vlog: corrupt record")

// ErrFormat reports a segment whose header is missing or names a
// format version this code does not read. Such a segment is never
// scanned, truncated or appended to.
var ErrFormat = errors.New("vlog: unsupported segment format")

// FormatVersion is the segment format this package reads and writes.
// Version 1 (headerless, bare records, pointers logged in the WAL) and
// version 2 (a tag byte before every inline value in a commit frame) are
// not readable.
const FormatVersion = 3

// HeaderSize is the length of the segment header; the first group
// starts right after it.
const HeaderSize = 8

const headerMagic = "SVLG"

// AppendHeader appends the segment header to dst.
func AppendHeader(dst []byte) []byte {
	dst = append(dst, headerMagic...)
	return binary.LittleEndian.AppendUint32(dst, FormatVersion)
}

// CheckHeader validates the header at the start of a segment's bytes.
func CheckHeader(b []byte) error {
	if len(b) < HeaderSize || string(b[:len(headerMagic)]) != headerMagic {
		return fmt.Errorf("%w: no version-%d segment header", ErrFormat, FormatVersion)
	}
	if v := binary.LittleEndian.Uint32(b[len(headerMagic):HeaderSize]); v != FormatVersion {
		return fmt.Errorf("%w: segment is version %d, this build reads version %d", ErrFormat, v, FormatVersion)
	}
	return nil
}

// crcSize is the checksum field width that starts every record and
// frame; the kind byte follows it.
const crcSize = 4

const (
	kindRecord = 0x01
	kindFrame  = 0x02
)

// maxLen bounds a single key, value or payload length a decoder will
// accept. Segments are a few MiB; anything claiming more is a torn or
// corrupt length byte, and rejecting it keeps adversarial inputs
// from turning into huge slice bounds.
const maxLen = 1 << 31

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mask implements LevelDB's CRC masking so CRCs stored in a segment
// do not collide with CRCs computed over segment bytes.
func mask(c uint32) uint32 { return ((c >> 15) | (c << 17)) + 0xa282ead8 }

// bodyCRC checksums a record or frame body (everything after the crc
// field) seeded with the segment file number.
func bodyCRC(seg uint64, body []byte) uint32 {
	// The seed is the segment number's eight little-endian bytes, run
	// through the table by hand: handing crc32.Update a slice of a
	// local array would move the array to the heap on every call.
	c := ^uint32(0)
	for i := 0; i < 8; i++ {
		c = castagnoli[byte(c)^byte(seg>>(8*i))] ^ (c >> 8)
	}
	return mask(crc32.Update(^c, castagnoli, body))
}

// sealCRC fills the crc field of the record or frame that starts at
// dst[start] and runs to the end of dst.
func sealCRC(dst []byte, start int, seg uint64) {
	binary.LittleEndian.PutUint32(dst[start:], bodyCRC(seg, dst[start+crcSize:]))
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v)
}

// RecordSize returns the encoded size of a record holding a key and
// value of the given lengths.
func RecordSize(klen, vlen int) int {
	return crcSize + 1 + uvarintLen(uint64(klen)) + uvarintLen(uint64(vlen)) + klen + vlen
}

// AppendRecord appends the framed record for (key, value) in segment
// seg to dst and returns the extended slice.
func AppendRecord(dst []byte, seg uint64, key, value []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, kindRecord) // crc placeholder, kind
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	dst = append(dst, key...)
	dst = append(dst, value...)
	sealCRC(dst, start, seg)
	return dst
}

// decodeLens checks the kind byte at the head of a record or frame and
// decodes the two uvarint lengths that follow it, returning them, the
// bytes after them, and the header length consumed (crc included).
func decodeLens(b []byte, kind byte, what string) (l1, l2 uint64, rest []byte, hdr int, err error) {
	if len(b) <= crcSize || b[crcSize] != kind {
		return 0, 0, nil, 0, fmt.Errorf("%w: no %s here", ErrCorrupt, what)
	}
	body := b[crcSize+1:]
	l1, n1 := binary.Uvarint(body)
	if n1 <= 0 || l1 > maxLen {
		return 0, 0, nil, 0, fmt.Errorf("%w: bad %s length", ErrCorrupt, what)
	}
	l2, n2 := binary.Uvarint(body[n1:])
	if n2 <= 0 || l2 > maxLen {
		return 0, 0, nil, 0, fmt.Errorf("%w: bad %s length", ErrCorrupt, what)
	}
	return l1, l2, body[n1+n2:], crcSize + 1 + n1 + n2, nil
}

// checkCRC verifies the checksum of the n-byte record or frame at the
// head of b.
func checkCRC(seg uint64, b []byte, n int) error {
	if got, want := bodyCRC(seg, b[crcSize:n]), binary.LittleEndian.Uint32(b[:crcSize]); got != want {
		return fmt.Errorf("%w: checksum mismatch in segment %d", ErrCorrupt, seg)
	}
	return nil
}

// DecodeRecord decodes one record from the head of b, returning the
// key, value, and encoded length consumed. The returned slices alias
// b. A short buffer, bad length, or checksum mismatch all return
// ErrCorrupt: the caller decides whether that means a torn tail
// (clean truncation) or damage.
func DecodeRecord(seg uint64, b []byte) (key, value []byte, n int, err error) {
	klen, vlen, payload, hdr, err := decodeLens(b, kindRecord, "record")
	if err != nil {
		return nil, nil, 0, err
	}
	if uint64(len(payload)) < klen+vlen {
		return nil, nil, 0, fmt.Errorf("%w: record claims %d payload bytes, %d remain", ErrCorrupt, klen+vlen, len(payload))
	}
	n = hdr + int(klen) + int(vlen)
	if err := checkCRC(seg, b, n); err != nil {
		return nil, nil, 0, err
	}
	return payload[:klen:klen], payload[klen : klen+vlen : klen+vlen], n, nil
}

// FrameSize returns the encoded size of a commit frame that follows
// rbytes of records and carries a plen-byte payload.
func FrameSize(rbytes, plen int) int {
	return crcSize + 1 + uvarintLen(uint64(rbytes)) + uvarintLen(uint64(plen)) + plen
}

// appendFrame appends the commit frame closing a group whose records
// total rbytes.
func appendFrame(dst []byte, seg uint64, rbytes int, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, kindFrame)
	dst = binary.AppendUvarint(dst, uint64(rbytes))
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	sealCRC(dst, start, seg)
	return dst
}

// decodeFrame decodes one commit frame from the head of b. The
// returned payload aliases b.
func decodeFrame(seg uint64, b []byte) (rbytes int, payload []byte, n int, err error) {
	rb, plen, rest, hdr, err := decodeLens(b, kindFrame, "frame")
	if err != nil {
		return 0, nil, 0, err
	}
	if uint64(len(rest)) < plen {
		return 0, nil, 0, fmt.Errorf("%w: frame claims %d payload bytes, %d remain", ErrCorrupt, plen, len(rest))
	}
	n = hdr + int(plen)
	if err := checkCRC(seg, b, n); err != nil {
		return 0, nil, 0, err
	}
	return int(rb), rest[:plen:plen], n, nil
}

// PointerSize is the fixed wire size of an encoded Pointer; the LSM
// separates a value only when it is larger than this, so separation
// always shrinks the tree.
const PointerSize = 16

// Pointer locates one record inside a value-log segment. Len is the
// full encoded record length, so a chase is a single ReadAt followed
// by DecodeRecord, and dead-byte accounting can charge the exact
// footprint a drop releases.
type Pointer struct {
	Seg uint64 // segment file number
	Off uint32 // byte offset of the record within the segment
	Len uint32 // encoded record length, header included
}

// AppendPointer appends p's fixed-size encoding to dst.
func AppendPointer(dst []byte, p Pointer) []byte {
	var b [PointerSize]byte
	binary.LittleEndian.PutUint64(b[0:8], p.Seg)
	binary.LittleEndian.PutUint32(b[8:12], p.Off)
	binary.LittleEndian.PutUint32(b[12:16], p.Len)
	return append(dst, b[:]...)
}

// DecodePointer decodes a Pointer from exactly PointerSize bytes.
func DecodePointer(b []byte) (Pointer, error) {
	if len(b) != PointerSize {
		return Pointer{}, fmt.Errorf("%w: pointer is %d bytes, want %d", ErrCorrupt, len(b), PointerSize)
	}
	return Pointer{
		Seg: binary.LittleEndian.Uint64(b[0:8]),
		Off: binary.LittleEndian.Uint32(b[8:12]),
		Len: binary.LittleEndian.Uint32(b[12:16]),
	}, nil
}

// Record is one value record of a group, as the Writer built it or
// the Scanner decoded it. Key and Value alias the group's buffer and
// are valid until the Writer's next Begin or the Scanner's next Next.
type Record struct {
	Key, Value []byte
	Ptr        Pointer
}

// Writer builds groups and appends each to a segment in one write.
// The sink is the segment's append file (any io.Writer in tests); off
// is where this writer resumes, so a reopened segment continues from
// its recovered valid length. The zero Writer has no segment and no
// room: the engine's first commit rotates it onto one. Writer does
// not lock: the engine serializes commits under its own mutex.
type Writer struct {
	w     io.Writer
	seg   uint64
	off   int64
	limit int64
	// overhead is the part of off that is header and commit frames:
	// bytes no Pointer ever references. The manifest learns it, and off,
	// when the segment is sealed; until then the writer is where they
	// are read.
	overhead int64
	buf      []byte   // the open group: records, then the frame
	recs     []Record // the open group's records
}

// NewWriter returns a Writer appending to segment seg at offset off,
// bounded only by the pointer offset range.
func NewWriter(w io.Writer, seg uint64, off int64) *Writer {
	return &Writer{w: w, seg: seg, off: off, limit: maxLen}
}

// Reset points the writer at segment seg, resuming at off — overhead of
// it header and frames — with limit the segment's capacity. The group
// buffers keep their capacity.
func (w *Writer) Reset(sink io.Writer, seg uint64, off, overhead, limit int64) {
	w.w, w.seg, w.off, w.overhead, w.limit = sink, seg, off, overhead, limit
	w.Begin()
}

// maxRetainedGroup bounds the group buffer a Writer keeps between
// commits: ordinary batches reuse it, while a rare huge group (a GC
// relocation filling a segment) does not pin its size forever.
const maxRetainedGroup = 64 << 10

// Begin opens an empty group, discarding any uncommitted one.
func (w *Writer) Begin() {
	if cap(w.buf) > maxRetainedGroup {
		w.buf = nil
	}
	// The old records alias the old buffer, and every array it outgrew
	// on the way: forget them, or they keep all of that alive.
	clear(w.recs)
	w.buf, w.recs = w.buf[:0], w.recs[:0]
}

// Add appends a value record to the open group and returns the
// Pointer a tree entry should store once the group commits. Offsets
// are known before the write, so pointers are too.
func (w *Writer) Add(key, value []byte) Pointer {
	start := len(w.buf)
	w.buf = AppendRecord(w.buf, w.seg, key, value)
	p := Pointer{Seg: w.seg, Off: uint32(w.off + int64(start)), Len: uint32(len(w.buf) - start)}
	klen := len(key)
	kv := w.buf[len(w.buf)-klen-len(value):]
	w.recs = append(w.recs, Record{Key: kv[:klen:klen], Value: kv[klen:len(kv):len(kv)], Ptr: p})
	return p
}

// Records returns the open group's records in Add order.
func (w *Writer) Records() []Record { return w.recs }

// GroupSize returns the bytes the open group will occupy once
// committed with a plen-byte frame payload.
func (w *Writer) GroupSize(plen int) int64 {
	return int64(len(w.buf) + FrameSize(len(w.buf), plen))
}

// Fits reports whether n more bytes fit in the segment.
func (w *Writer) Fits(n int64) bool { return w.off+n <= w.limit }

// Commit closes the open group with a frame carrying payload and
// writes the whole group — records first, frame last — to the sink
// in one Write, which is the durability point: a torn prefix of that
// write lacks the frame, and the scanner drops it whole. A group
// never straddles a segment: one that does not fit is refused with
// nothing written (the engine rotates first). Returns the group's
// length; the records stay readable until the next Begin.
func (w *Writer) Commit(payload []byte) (n int, err error) {
	rbytes := len(w.buf)
	w.buf = appendFrame(w.buf, w.seg, rbytes, payload)
	if !w.Fits(int64(len(w.buf))) {
		return 0, fmt.Errorf("vlog: %d-byte group does not fit segment %d at %d of %d bytes", len(w.buf), w.seg, w.off, w.limit)
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return 0, err
	}
	w.off += int64(len(w.buf))
	w.overhead += int64(len(w.buf) - rbytes)
	return len(w.buf), nil
}

// Append commits a group of one record and an empty frame payload,
// returning the record's Pointer.
func (w *Writer) Append(key, value []byte) (Pointer, error) {
	w.Begin()
	p := w.Add(key, value)
	_, err := w.Commit(nil)
	return p, err
}

// Seg returns the segment file number this writer appends to (0 when
// it has none yet).
func (w *Writer) Seg() uint64 { return w.seg }

// Offset returns the segment offset the next group will land at —
// equivalently, the bytes written to the segment so far.
func (w *Writer) Offset() int64 { return w.off }

// Overhead returns how many of the segment's bytes so far are header
// and commit frames.
func (w *Writer) Overhead() int64 { return w.overhead }

// Scanner walks the groups in a segment's bytes. Next returns false
// at the first byte range that does not decode as a whole group;
// ValidLen then reports the clean prefix. On the active segment after
// a crash that boundary is the torn tail — every group before it is
// intact (records and frames carry their own CRCs), everything after
// is an interrupted write to truncate away: records without their
// frame were never acknowledged.
type Scanner struct {
	seg     uint64
	buf     []byte
	base    int64 // segment offset of buf[0]
	pos     int   // end of the last whole group
	recs    []Record
	payload []byte
	frame   int // encoded length of the current group's frame
	err     error
}

// NewScanner returns a Scanner over buf, which holds segment seg's
// bytes starting at segment offset off — a group boundary: HeaderSize,
// or a position a Writer reported.
func NewScanner(seg uint64, buf []byte, off int64) *Scanner {
	return &Scanner{seg: seg, buf: buf, base: off}
}

// Next advances to the next group, reporting whether a whole one —
// its records and the frame that vouches for exactly them — was
// decoded.
func (s *Scanner) Next() bool {
	if s.err != nil || s.pos >= len(s.buf) {
		return false
	}
	s.recs = s.recs[:0]
	p := s.pos
	// Records up to the frame; the kind byte says which is next, so a
	// decode error is damage (or the torn tail), never the loop's exit.
	for len(s.buf)-p > crcSize && s.buf[p+crcSize] == kindRecord {
		key, val, n, err := DecodeRecord(s.seg, s.buf[p:])
		if err != nil {
			s.err, s.recs = err, s.recs[:0]
			return false
		}
		s.recs = append(s.recs, Record{Key: key, Value: val,
			Ptr: Pointer{Seg: s.seg, Off: uint32(s.base + int64(p)), Len: uint32(n)}})
		p += n
	}
	rbytes, payload, n, err := decodeFrame(s.seg, s.buf[p:])
	if err == nil && rbytes != p-s.pos {
		err = fmt.Errorf("%w: frame vouches for %d record bytes, %d precede it", ErrCorrupt, rbytes, p-s.pos)
	}
	if err != nil {
		s.err, s.recs = err, s.recs[:0]
		return false
	}
	s.payload, s.frame = payload, n
	s.pos = p + n
	return true
}

// Records returns the current group's value records, in log order.
// Valid until the next call to Next.
func (s *Scanner) Records() []Record { return s.recs }

// Payload returns the current group's frame payload. Valid until the
// next call to Next.
func (s *Scanner) Payload() []byte { return s.payload }

// FrameLen returns the encoded length of the current group's frame:
// the group's bytes that no Pointer will ever reference.
func (s *Scanner) FrameLen() int64 { return int64(s.frame) }

// ValidLen returns the segment offset where the clean group prefix
// ends: the truncation point for tail recovery.
func (s *Scanner) ValidLen() int64 { return s.base + int64(s.pos) }

// Err returns the decode error that ended the scan, or nil if the
// buffer was consumed exactly.
func (s *Scanner) Err() error { return s.err }
