// Package varstream is the framing the compact trace and the CE log
// share: a little-endian uint32 magic, uvarint header fields ending in
// a declared event count, then that many events of uvarint fields.
// Reader decodes it from a fixed window of source bytes with
// positioned, sticky errors; Writer encodes it into a buffer of its
// own. Each format keeps only its own field layout, bounds and
// messages.
package varstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// WindowSize is the Reader's read-ahead window, the size bufio.Reader
// defaults to. A replay pass that opens many streams keeps every
// window resident until a GC cycle runs; a 32 KiB window cost 9 % more
// peak RSS on the trace-replay benchmark (EXPERIMENTS.md, "Decoding
// from a window").
const WindowSize = 4096

// MaxEmptyReads is how many consecutive (0, nil) reads a refill
// accepts before it fails with io.ErrNoProgress, as bufio.Reader does.
const MaxEmptyReads = 100

// errOverflow is binary.ReadUvarint's error for a varint wider than 64
// bits, with the same text; the binary package does not export it.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// DecodeError locates a malformed field in a stream: the event index
// it belongs to (-1 for header fields) and the byte offset where its
// encoding starts.
type DecodeError struct {
	// Format names the stream's format ("trace", "fleet"); it prefixes
	// the error text.
	Format string
	// Event is the 0-based index of the event being decoded, or -1 when
	// the header failed.
	Event int64
	// Offset is the byte offset of the failing field's first byte.
	Offset int64
	// Field names the field being decoded.
	Field string
	// Err is the underlying cause (the format's sentinel for structural
	// violations, io.ErrUnexpectedEOF for truncation, ...).
	Err error
}

// Error implements error.
func (e *DecodeError) Error() string {
	if e.Event < 0 {
		return fmt.Sprintf("%s: decoding %s at offset %d: %v", e.Format, e.Field, e.Offset, e.Err)
	}
	return fmt.Sprintf("%s: decoding event %d %s at offset %d: %v", e.Format, e.Event, e.Field, e.Offset, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *DecodeError) Unwrap() error { return e.Err }

// Reader decodes a stream from a fixed window of source bytes, so its
// memory use is constant whatever the stream's length, and it reads up
// to one window ahead of the last field it decoded. A format embeds it
// by value, opens it with Open and reads its header; then each event
// is Done, Begin, and one Uvarint per field, or whole events decoded
// from Window and accounted for with Consume. Every failure is a
// DecodeError positioned at the failing field, and once an event has
// failed, Done reports the stream over and Err returns the failure.
//
// Event decoding is the replay's hot path, so its calls inline to one
// compare and no taken branch: Done tests a single counter and Err
// loads a single field, where a begin that returned an error compiled
// to two taken branches per event.
type Reader struct {
	src  io.Reader
	buf  []byte // the window: buf[pos:end] is read but not yet decoded
	pos  int
	end  int
	base int64 // source offset of buf[0]
	rerr error // sticky source error (io.EOF included), due after buf[:end]

	format string // DecodeError.Format
	bad    error  // the format's sentinel
	total  uint64 // declared event count
	left   uint64 // declared events not yet begun; a failure zeroes it
	err    error  // why the stream ends: io.EOF, or the failure
}

// Open starts decoding src with the format's name, magic and sentinel:
// a wrong magic returns bad itself, and bad wraps every out-of-bound
// header field.
func (r *Reader) Open(src io.Reader, format string, magic uint32, bad error) error {
	*r = Reader{src: src, buf: make([]byte, WindowSize), format: format, bad: bad}
	for r.end < 4 && r.rerr == nil {
		r.fill()
	}
	if r.end < 4 {
		return r.Fail(0, "magic", noEOF(r.rerr))
	}
	if binary.LittleEndian.Uint32(r.buf) != magic {
		return bad
	}
	r.pos = 4
	return nil
}

// Header decodes a header field no larger than max; a larger one fails
// as an implausible field.
func (r *Reader) Header(field string, max uint64) (uint64, error) {
	off := r.Offset()
	v, err := r.Uvarint()
	if err != nil {
		return 0, r.Fail(off, field, err)
	}
	if v > max {
		return 0, r.Fail(off, field, fmt.Errorf("%w: implausible %s %d", r.bad, field, v))
	}
	return v, nil
}

// String decodes a header string: its length no larger than max, under
// lenField, then that many bytes, under field. Both fail at the
// length's offset.
func (r *Reader) String(lenField, field string, max uint64) (string, error) {
	off := r.Offset()
	n, err := r.Header(lenField, max)
	if err != nil {
		return "", err
	}
	var s strings.Builder
	s.Grow(int(n))
	for s.Len() < int(n) {
		if r.pos == r.end {
			if r.rerr != nil {
				return "", r.Fail(off, field, noEOF(r.rerr))
			}
			r.fill()
			continue
		}
		k := min(int(n)-s.Len(), r.end-r.pos)
		s.Write(r.buf[r.pos : r.pos+k])
		r.pos += k
	}
	return s.String(), nil
}

// Count decodes the declared event count, no larger than max: the last
// header field.
func (r *Reader) Count(max uint64) error {
	n, err := r.Header("event count", max)
	if err != nil {
		return err
	}
	r.total, r.left, r.err = n, n, io.EOF
	return nil
}

// Events returns the declared event count.
func (r *Reader) Events() uint64 { return r.total }

// Done reports whether the stream is over: every declared event has
// begun, or a field failed. Err says which.
func (r *Reader) Done() bool { return r.left == 0 }

// Err returns why the stream is over: io.EOF after the declared events,
// or the sticky decode error.
func (r *Reader) Err() error { return r.err }

// Begin begins the next event and returns the offset of its first
// field. Call it only while Done is false.
func (r *Reader) Begin() int64 {
	r.left--
	return r.Offset()
}

// Offset returns the source offset of the next field.
func (r *Reader) Offset() int64 { return r.base + int64(r.pos) }

// Window returns the window's undecoded bytes and how many declared
// events have not begun. A format may decode whole events straight from
// the bytes and account for them with Consume; an event it cannot
// finish there goes through Begin and Uvarint, which refill the window
// and position any failure.
func (r *Reader) Window() ([]byte, uint64) { return r.buf[r.pos:r.end], r.left }

// Consume accounts for the given number of whole events, decoded from
// the first n bytes that Window returned.
func (r *Reader) Consume(n int, events uint64) {
	r.pos += n
	r.left -= events
}

// Uvarint decodes the next field, refilling the window while the field
// runs past its end. The outcomes are binary.ReadUvarint's: a field
// the source ends in (or before) is io.ErrUnexpectedEOF, any other
// source error passes through, and ten continuation bytes overflow
// even when the source ends after them, where binary.Uvarint alone
// reports a short buffer.
func (r *Reader) Uvarint() (uint64, error) {
	for {
		if r.pos < r.end {
			if b := r.buf[r.pos]; b < 0x80 {
				r.pos++
				return uint64(b), nil
			}
		}
		v, n := binary.Uvarint(r.buf[r.pos:r.end])
		if n > 0 {
			r.pos += n
			return v, nil
		}
		if n < 0 || r.end-r.pos >= binary.MaxVarintLen64 {
			return 0, errOverflow
		}
		if r.rerr != nil {
			return 0, noEOF(r.rerr)
		}
		r.fill()
	}
}

// Fail ends the stream with cause as the decode error of the field at
// offset off, in the event Begin last began (-1 in the header), and
// returns the error.
func (r *Reader) Fail(off int64, field string, cause error) error {
	event := int64(r.total-r.left) - 1
	r.left = 0
	r.err = &DecodeError{Format: r.format, Event: event, Offset: off, Field: field, Err: cause}
	return r.err
}

// fill moves the undecoded bytes to the front of the window and reads
// the source once into the space after them, retrying empty reads as
// bufio.Reader does. A source error, io.EOF included, is kept in r.rerr
// and surfaces only when a field needs bytes past the window. Callers
// leave fewer than binary.MaxVarintLen64 bytes undecoded, so the read
// always has room.
func (r *Reader) fill() {
	r.base += int64(r.pos)
	r.end = copy(r.buf, r.buf[r.pos:r.end])
	r.pos = 0
	for range MaxEmptyReads {
		n, err := r.src.Read(r.buf[r.end:])
		r.end += n
		if err != nil {
			r.rerr = err
			return
		}
		if n > 0 {
			return
		}
	}
	r.rerr = io.ErrNoProgress
}

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF: inside a
// declared-length stream, running out of bytes is truncation, never a
// clean end.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// maxEvent is the most bytes one event may take: twelve varints.
const maxEvent = 12 * binary.MaxVarintLen64

// Writer encodes a stream into a buffer of its own, WindowSize bytes,
// and writes the buffer out once fewer than one event's worth of bytes
// is left, so an event costs no call and no allocation. The first
// write error sticks: later writes are dropped, and Close returns it.
type Writer struct {
	dst io.Writer
	err error
	n   int              // pending bytes in buf
	buf [WindowSize]byte // pending bytes: the magic, header fields, events
}

// NewWriter starts a stream on dst with the magic.
func NewWriter(dst io.Writer, magic uint32) *Writer {
	w := &Writer{dst: dst, n: 4}
	binary.LittleEndian.PutUint32(w.buf[:], magic)
	return w
}

// Uvarint appends a field to the pending ones.
func (w *Writer) Uvarint(v uint64) {
	w.n += binary.PutUvarint(w.buf[w.n:], v)
}

// String writes s as Reader.String decodes it: its length, then its
// bytes.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.flush()
	if w.err == nil {
		n, err := io.WriteString(w.dst, s)
		w.failShort(n, len(s), err)
	}
}

// Emit ends an event of at most twelve fields, writing the pending
// bytes out if the next event might not fit after them.
func (w *Writer) Emit() {
	if len(w.buf)-w.n < maxEvent {
		w.flush()
	}
}

// Close writes the pending bytes and returns the first write error.
func (w *Writer) Close() error {
	w.flush()
	return w.err
}

// flush writes the pending bytes unless a write has failed.
func (w *Writer) flush() {
	if w.err == nil && w.n > 0 {
		n, err := w.dst.Write(w.buf[:w.n])
		w.failShort(n, w.n, err)
	}
	w.n = 0
}

// failShort keeps a write's error, failing a short write that returned
// none with io.ErrShortWrite, as bufio.Writer does.
func (w *Writer) failShort(n, want int, err error) {
	if err == nil && n < want {
		err = io.ErrShortWrite
	}
	w.err = err
}
