package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestHalveIntervalsEmpty(t *testing.T) {
	tr := &Trace{Name: "empty", Duration: 1000}
	h := tr.HalveIntervals()
	if h.Duration != 500 || len(h.Events) != 0 {
		t.Errorf("halved empty trace = %+v", h)
	}
	if h.Name != "empty-halved" {
		t.Errorf("name = %q", h.Name)
	}
}

func TestIntervalsEmptyAndSingle(t *testing.T) {
	empty := &Trace{Duration: 100}
	if got := empty.Intervals(true); len(got) != 0 {
		t.Errorf("empty trace intervals = %v", got)
	}
	single := &Trace{Duration: 5 * Millisecond, Events: []Event{{Page: 1, At: Millisecond}}}
	closed := single.Intervals(false)
	if len(closed) != 0 {
		t.Errorf("single write closed intervals = %v", closed)
	}
	open := single.Intervals(true)
	if len(open) != 1 || open[0] != 4 {
		t.Errorf("single write trailing interval = %v, want [4]", open)
	}
}

func TestIntervalsNoTrailingWhenEventAtEnd(t *testing.T) {
	tr := &Trace{Duration: 100, Events: []Event{{Page: 1, At: 100}}}
	if got := tr.Intervals(true); len(got) != 0 {
		t.Errorf("event at trace end yielded trailing interval %v", got)
	}
}

func TestReadRejectsHugeName(t *testing.T) {
	// A compact header whose name length exceeds the 64 KiB cap must be
	// rejected before the decoder allocates the name.
	b := binary.LittleEndian.AppendUint32(nil, compactMagic)
	b = binary.AppendUvarint(b, 1<<40)
	if _, err := ReadCompact(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("huge name length: err = %v, want ErrBadFormat", err)
	}
}

func TestWritesPerPageOrderPreserved(t *testing.T) {
	tr := &Trace{Duration: 100, Events: []Event{
		{Page: 1, At: 10}, {Page: 1, At: 10}, {Page: 1, At: 20},
	}}
	times := tr.PageWrites()[1]
	if len(times) != 3 || times[0] != 10 || times[1] != 10 || times[2] != 20 {
		t.Errorf("times = %v", times)
	}
}
