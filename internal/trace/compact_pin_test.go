package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"memcon/internal/workload"
)

// TestCompactBytesPinned pins the compact format byte for byte: the
// encoding of a generated trace must keep the SHA-256 it had when the
// encoder wrote each varint separately.
func TestCompactBytesPinned(t *testing.T) {
	app, err := workload.AppByName("Netflix")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := app.Generate(42, 0.05).WriteCompact(h); err != nil {
		t.Fatal(err)
	}
	const want = "02a4892166e6702ff87cf84bfa4da0d2ac9e25f67f6b0c098a0bf537e1574cfe"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("compact encoding of Netflix (seed 42, scale 0.05) hashes to %s, want %s", got, want)
	}
}
