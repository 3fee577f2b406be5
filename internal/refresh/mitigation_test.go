package refresh

import (
	"math"
	"testing"
)

func TestParseMitigation(t *testing.T) {
	for _, spec := range []string{"", "none", " NONE "} {
		m, err := ParseMitigation(spec, 1)
		if err != nil || m != nil {
			t.Fatalf("ParseMitigation(%q) = %v, %v; want nil, nil", spec, m, err)
		}
	}
	m, err := ParseMitigation("para:0.01", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "para:0.01" {
		t.Fatalf("PARA name = %q", m.Name())
	}
	m, err = ParseMitigation("PRAC:4096", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "prac:4096" {
		t.Fatalf("PRAC name = %q", m.Name())
	}
	for _, spec := range []string{"para", "para:0", "para:1.5", "para:x", "prac:0", "prac:-3", "prac:x", "blp:2", "para:NaN"} {
		if _, err := ParseMitigation(spec, 1); err == nil {
			t.Errorf("ParseMitigation(%q) accepted", spec)
		}
	}
}

func TestCanonicalMitigationSpec(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"none", ""},
		{" None ", ""},
		{"para:0.0100", "para:0.01"},
		{"PARA:0.001", "para:0.001"},
		{"prac:04096", "prac:4096"},
	}
	for _, c := range cases {
		got, err := CanonicalMitigationSpec(c.in)
		if err != nil {
			t.Errorf("CanonicalMitigationSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("CanonicalMitigationSpec(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := CanonicalMitigationSpec("para:2"); err == nil {
		t.Error("CanonicalMitigationSpec accepted para:2")
	}
}

func TestPRACDeterministicSchedule(t *testing.T) {
	m, err := NewPRAC(4)
	if err != nil {
		t.Fatal(err)
	}
	var ops []int
	for count := int64(1); count <= 9; count++ {
		ops = append(ops, m.OnActivation(0, 7, count))
	}
	want := []int{0, 0, 0, 2, 0, 0, 0, 2, 0}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("PRAC schedule %v, want %v", ops, want)
		}
	}
}

func TestPARADeterministicAndCalibrated(t *testing.T) {
	run := func(seed uint64) (total int64) {
		m, err := NewPARA(0.01, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 100_000; i++ {
			total += int64(m.OnActivation(0, 0, i))
		}
		return total
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed produced different op totals: %d vs %d", a, b)
	}
	// 100k activations at p=0.01 → ~1000 hits → ~2000 ops.
	if a < 1500 || a > 2500 {
		t.Fatalf("PARA ops %d far from expectation 2000", a)
	}
	if c := run(43); c == a {
		t.Fatalf("different seeds produced identical op totals %d", a)
	}
}

func TestPARAEscapeProb(t *testing.T) {
	if got := PARAEscapeProb(0.01, 0); got != 1 {
		t.Fatalf("escape prob of empty hammer = %v", got)
	}
	if got := PARAEscapeProb(1, 5); got != 0 {
		t.Fatalf("escape prob at p=1 = %v", got)
	}
	got := PARAEscapeProb(0.001, 10_000)
	want := math.Pow(1-0.001, 10_000)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("PARAEscapeProb = %v, want %v", got, want)
	}
	if !(PARAEscapeProb(0.01, 1000) < PARAEscapeProb(0.001, 1000)) {
		t.Fatal("escape prob not decreasing in p")
	}
}

func TestPRACCappedHammer(t *testing.T) {
	if got := PRACCappedHammer(1024, 500); got != 500 {
		t.Fatalf("below cap: got %d, want 500", got)
	}
	if got := PRACCappedHammer(1024, 1_000_000); got != 2*1023+1 {
		t.Fatalf("above cap: got %d, want %d", got, 2*1023+1)
	}
	if got := PRACCappedHammer(1, 1_000_000); got != 1 {
		t.Fatalf("threshold 1: got %d, want 1", got)
	}
	if got := PRACCappedHammer(0, 100); got != 0 {
		t.Fatalf("invalid threshold: got %d, want 0", got)
	}
}
