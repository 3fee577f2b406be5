package varstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

var errBad = errors.New("test: bad stream")

// TestDecodeErrorText pins the error texts both formats print.
func TestDecodeErrorText(t *testing.T) {
	for _, tc := range []struct {
		err  DecodeError
		want string
	}{
		{DecodeError{Format: "trace", Event: 3, Offset: 17, Field: "page", Err: io.ErrUnexpectedEOF},
			"trace: decoding event 3 page at offset 17: unexpected EOF"},
		{DecodeError{Format: "fleet", Event: -1, Offset: 4, Field: "module count", Err: errBad},
			"fleet: decoding module count at offset 4: test: bad stream"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("Error() = %q, want %q", got, tc.want)
		}
	}
}

// TestRoundTrip writes a stream with every Writer call and reads it
// back with every Reader call: the bytes are the hand-assembled
// layout, the declared events decode, io.EOF follows them, and a
// failed field is positioned and sticky.
func TestRoundTrip(t *testing.T) {
	var b bytes.Buffer
	w := NewWriter(&b, 0x01020304)
	w.String("name")
	w.Uvarint(300)
	w.Uvarint(2) // event count
	for _, ev := range [][2]uint64{{1, 1 << 40}, {0, 127}} {
		w.Uvarint(ev[0])
		w.Uvarint(ev[1])
		w.Emit()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := binary.LittleEndian.AppendUint32(nil, 0x01020304)
	want = append(binary.AppendUvarint(want, 4), "name"...)
	for _, v := range []uint64{300, 2, 1, 1 << 40, 0, 127} {
		want = binary.AppendUvarint(want, v)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("Writer wrote %x, want %x", b.Bytes(), want)
	}

	// open reads the header up to the event count's field.
	open := func() *Reader {
		r := &Reader{}
		if err := r.Open(bytes.NewReader(want), "test", 0x01020304, errBad); err != nil {
			t.Fatal(err)
		}
		if name, err := r.String("name length", "name", 16); err != nil || name != "name" {
			t.Fatalf("String = %q, %v", name, err)
		}
		return r
	}
	r := open()
	if _, err := r.Header("field", 300); err != nil {
		t.Fatal(err)
	}
	if err := r.Count(2); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if r.Done() {
			t.Fatalf("event %d: stream over: %v", i, r.Err())
		}
		r.Begin()
		for range 2 {
			if _, err := r.Uvarint(); err != nil {
				t.Fatalf("event %d: %v", i, err)
			}
		}
	}
	if !r.Done() || r.Err() != io.EOF {
		t.Fatalf("after the declared events: Done %v, Err %v; want true, io.EOF", r.Done(), r.Err())
	}

	r = open()
	_, err := r.Header("field", 299)
	var de *DecodeError
	if !errors.As(err, &de) || !errors.Is(err, errBad) || de.Event != -1 || de.Offset != 9 {
		t.Fatalf("Header over its bound = %v, want a header DecodeError at offset 9 wrapping %v", err, errBad)
	}

	r = open()
	r.Header("field", 300)
	r.Count(2)
	r.Begin()
	r.Uvarint()
	r.Uvarint()
	r.Begin()
	r.Uvarint()
	off := r.Offset()
	fail := r.Fail(off, "second", errBad)
	want2 := &DecodeError{Format: "test", Event: 1, Offset: int64(len(want) - 1), Field: "second", Err: errBad}
	if fail.Error() != want2.Error() {
		t.Fatalf("Fail = %v, want %v", fail, want2)
	}
	if !r.Done() || r.Err() != fail {
		t.Fatalf("after a failure: Done %v, Err %v; want true and the sticky %v", r.Done(), r.Err(), fail)
	}

	if err := r.Open(bytes.NewReader(want), "test", 0x04030201, errBad); err != errBad {
		t.Fatalf("Open with the wrong magic = %v, want %v", err, errBad)
	}

	// A write error sticks in the buffered writer and Close returns it,
	// here from a string longer than the 4 KiB buffer, written through.
	w = NewWriter(failWriter{}, 0x01020304)
	w.String(string(make([]byte, 8192)))
	w.Uvarint(1)
	w.Emit()
	if err := w.Close(); err != errBad {
		t.Fatalf("Close after a failed write = %v, want %v", err, errBad)
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errBad }
