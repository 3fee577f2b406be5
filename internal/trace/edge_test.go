package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

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
