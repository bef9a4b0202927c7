// Package wal implements the write-ahead log in LevelDB's log
// format: the stream is cut into 32 KiB blocks, each record is
// written as one FULL fragment or a FIRST/MIDDLE.../LAST chain that
// never crosses a block boundary, and every fragment carries a masked
// CRC-32C over its type and payload. The reader ends the stream at the
// first damaged fragment, reporting what it skipped: everything past a
// torn append is unreliable.
//
// Every stream is tagged with the owning file's number: the tag is
// folded into every fragment CRC, so frames left behind by a previous
// occupant of a reused extent fail the checksum instead of replaying
// into the wrong log — the protection LevelDB's recyclable log format
// gets from its log-number header field.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// BlockSize is the log's framing unit.
	BlockSize = 32 * 1024
	// headerSize is checksum (4) + length (2) + type (1).
	headerSize = 7
)

// Fragment types.
const (
	typeFull   = 1
	typeFirst  = 2
	typeMiddle = 3
	typeLast   = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mask implements LevelDB's CRC masking so that CRCs stored in the
// stream do not collide with CRCs computed over the stream.
func mask(c uint32) uint32 { return ((c >> 15) | (c << 17)) + 0xa282ead8 }

// fragmentCRC checksums a fragment under tag. seed is scratch of the
// caller's that lives on the heap already: it escapes into crc32, and a
// local would be an allocation per fragment.
func fragmentCRC(seed *[9]byte, tag uint64, ftype byte, payload []byte) uint32 {
	binary.LittleEndian.PutUint64(seed[0:8], tag)
	seed[8] = ftype
	c := crc32.Update(0, castagnoli, seed[:])
	c = crc32.Update(c, castagnoli, payload)
	return mask(c)
}

// Writer appends records to an io.Writer.
type Writer struct {
	w           io.Writer
	tag         uint64
	blockOffset int // position within the current block
	written     int64
	records     int64
	seed        [9]byte // fragmentCRC's scratch
	frame       []byte  // the fragment on its way to w, reused
}

// zeros fills a block's tail too short for a header.
var zeros [headerSize]byte

// NewTaggedWriter creates a log writer that starts at a block boundary
// and whose fragment CRCs are bound to tag (the owning file's number),
// so a reader with a different tag rejects the frames as corrupt.
func NewTaggedWriter(w io.Writer, tag uint64) *Writer {
	return &Writer{w: w, tag: tag}
}

// NewReopenedWriter creates a writer that continues a log whose
// first offset bytes were written by an earlier writer, so block
// framing stays consistent across reopen (used by the MANIFEST).
// tag must match the original writer's tag.
func NewReopenedWriter(w io.Writer, tag uint64, offset int64) *Writer {
	return &Writer{w: w, tag: tag, blockOffset: int(offset % BlockSize)}
}

// AddRecord appends one record, fragmenting it across blocks as
// needed. Empty records are legal.
func (w *Writer) AddRecord(payload []byte) error {
	w.records++
	begin := true
	for {
		leftover := BlockSize - w.blockOffset
		if leftover < headerSize {
			// Fill the block trailer with zeros.
			if leftover > 0 {
				if err := w.emit(zeros[:leftover]); err != nil {
					return err
				}
			}
			w.blockOffset = 0
			leftover = BlockSize
		}
		avail := leftover - headerSize
		frag := payload
		if len(frag) > avail {
			frag = frag[:avail]
		}
		end := len(frag) == len(payload)

		var ftype byte
		switch {
		case begin && end:
			ftype = typeFull
		case begin:
			ftype = typeFirst
		case end:
			ftype = typeLast
		default:
			ftype = typeMiddle
		}
		if err := w.emitFragment(ftype, frag); err != nil {
			return err
		}
		payload = payload[len(frag):]
		begin = false
		if end {
			return nil
		}
	}
}

// emitFragment writes one fragment, header and payload, as one write:
// both are assembled in the writer's reused frame buffer, which never
// outgrows a block.
func (w *Writer) emitFragment(ftype byte, payload []byte) error {
	w.frame = append(w.frame[:0], 0, 0, 0, 0, 0, 0, ftype)
	binary.LittleEndian.PutUint32(w.frame[0:4], fragmentCRC(&w.seed, w.tag, ftype, payload))
	binary.LittleEndian.PutUint16(w.frame[4:6], uint16(len(payload)))
	w.frame = append(w.frame, payload...)
	if err := w.emit(w.frame); err != nil {
		return err
	}
	w.blockOffset += len(w.frame)
	return nil
}

func (w *Writer) emit(p []byte) error {
	n, err := w.w.Write(p)
	w.written += int64(n)
	if err == nil && n != len(p) {
		err = io.ErrShortWrite
	}
	return err
}

// Size returns the bytes written to the underlying writer.
func (w *Writer) Size() int64 { return w.written }

// Records returns the number of records appended to this writer.
func (w *Writer) Records() int64 { return w.records }

// ErrCorrupt is wrapped by reader errors caused by damaged fragments.
var ErrCorrupt = errors.New("wal: corrupt fragment")

// Reader sequentially decodes records from a log stream.
type Reader struct {
	r         io.Reader
	tag       uint64
	block     [BlockSize]byte
	seed      [9]byte // fragmentCRC's scratch
	buf       []byte  // unconsumed bytes of the current block
	eof       bool
	skipped   int64 // bytes dropped due to corruption
	totalRead int64 // bytes consumed from the underlying reader
	recordEnd int64 // stream offset just past the last returned record
}

// NewTaggedReader creates a reader that accepts only fragments whose
// CRC was bound to tag by NewTaggedWriter. The first corrupt fragment
// ends the stream (ReadRecord returns io.EOF): everything past a torn
// append — including stale frames from a previous occupant of a reused
// extent — is the end of the log.
func NewTaggedReader(r io.Reader, tag uint64) *Reader {
	return &Reader{r: r, tag: tag}
}

// Skipped returns the number of bytes dropped as torn or corrupt.
func (r *Reader) Skipped() int64 { return r.skipped }

// LastRecordEnd returns the stream offset immediately after the final
// fragment of the last record ReadRecord returned (0 if none). After
// a scan this is the tear point: the offset at which a reopened writer
// should resume appending.
func (r *Reader) LastRecordEnd() int64 { return r.recordEnd }

// ReadRecord returns the next record. It returns io.EOF at the clean
// end of the log and at the first corrupt fragment (accounted in
// Skipped).
func (r *Reader) ReadRecord() ([]byte, error) {
	var record []byte
	inFragmented := false
	for {
		ftype, payload, err := r.nextFragment()
		if err == io.EOF {
			if inFragmented {
				// A partially written record at the tail of the log
				// (crash mid-append): drop it silently, as LevelDB
				// recovery does.
				r.skipped += int64(len(record))
				return nil, io.EOF
			}
			return nil, io.EOF
		}
		if err != nil {
			// The stream ends at the first damaged fragment;
			// everything after it is unreliable.
			r.skipped += int64(len(record)) + int64(len(r.buf))
			r.buf = nil
			r.eof = true
			return nil, io.EOF
		}
		switch ftype {
		case typeFull:
			if inFragmented {
				r.skipped += int64(len(record))
			}
			r.recordEnd = r.totalRead - int64(len(r.buf))
			return payload, nil
		case typeFirst:
			if inFragmented {
				r.skipped += int64(len(record))
			}
			record = append(record[:0], payload...)
			inFragmented = true
		case typeMiddle:
			if !inFragmented {
				r.skipped += int64(len(payload))
				continue
			}
			record = append(record, payload...)
		case typeLast:
			if !inFragmented {
				r.skipped += int64(len(payload))
				continue
			}
			r.recordEnd = r.totalRead - int64(len(r.buf))
			return append(record, payload...), nil
		default:
			r.skipped += int64(len(payload))
		}
	}
}

// nextFragment decodes one fragment, reading a new block as needed.
func (r *Reader) nextFragment() (byte, []byte, error) {
	for {
		if len(r.buf) < headerSize {
			// Trailer or empty: load the next block.
			if r.eof {
				return 0, nil, io.EOF
			}
			n, err := io.ReadFull(r.r, r.block[:])
			r.totalRead += int64(n)
			if err == io.ErrUnexpectedEOF || err == io.EOF {
				r.eof = true
			} else if err != nil {
				return 0, nil, err
			}
			if n == 0 {
				return 0, nil, io.EOF
			}
			r.buf = r.block[:n]
			continue
		}
		hdr := r.buf[:headerSize]
		length := int(binary.LittleEndian.Uint16(hdr[4:6]))
		ftype := hdr[6]
		if ftype == 0 && length == 0 {
			// Zeroed trailer (or preallocated tail): end of block.
			r.buf = nil
			continue
		}
		if headerSize+length > len(r.buf) {
			return 0, nil, fmt.Errorf("%w: fragment length %d exceeds block remainder %d",
				ErrCorrupt, length, len(r.buf)-headerSize)
		}
		payload := r.buf[headerSize : headerSize+length]
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		if fragmentCRC(&r.seed, r.tag, ftype, payload) != wantCRC {
			return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		r.buf = r.buf[headerSize+length:]
		return ftype, payload, nil
	}
}
