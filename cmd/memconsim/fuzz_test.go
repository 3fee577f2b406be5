package main

import (
	"context"
	"io"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzMemconsimArgs feeds arbitrary argument vectors to the CLI entry
// point. Invalid input must come back as an error, never a panic; the
// flag set may also accept the input, in which case the experiment
// runs. Overrides appended after the fuzzed args keep accepted runs
// cheap (flag.Parse takes the last occurrence of a repeated flag).
func FuzzMemconsimArgs(f *testing.F) {
	f.Add("-list")
	f.Add("-exp fig6")
	f.Add("-exp table1 -format csv")
	f.Add("-exp fig99")
	f.Add("-all -format csv")
	f.Add("-scale -1")
	f.Add("-exp fig6 -parallel 0")
	f.Add("-exp fig6 -parallel -3")
	f.Add("-seed notanumber")
	f.Add("--")
	f.Add("-exp\x00fig6")
	f.Fuzz(func(t *testing.T, raw string) {
		if len(raw) > 256 || !utf8.ValidString(raw) {
			t.Skip()
		}
		args := strings.Fields(raw)
		for _, a := range args {
			// A fuzzed "-exp fig15 -mixes 9999999" must not turn into a
			// multi-hour simulation; reject inputs that try to re-raise
			// the cost knobs after our overrides would be bypassed.
			if len(a) > 64 {
				t.Skip()
			}
		}
		args = append(args,
			"-scale", "0.02", "-simtime", "50000", "-mixes", "1", "-parallel", "2")
		// Any outcome but a panic is acceptable.
		_ = run(context.Background(), args, io.Discard)
	})
}

// TestCSVUniversal pins that the typed-report refactor gave every
// experiment a CSV form — including the ids that used to reject CSV
// output with a "no CSV form" error (table1, minwi, fig3).
func TestCSVUniversal(t *testing.T) {
	for _, id := range []string{"fig6", "table1", "minwi", "fig3"} {
		var out strings.Builder
		if err := run(context.Background(), []string{"-exp", id, "-format", "csv", "-scale", "0.04"}, &out); err != nil {
			t.Errorf("%s -format csv: %v", id, err)
			continue
		}
		header := strings.SplitN(out.String(), "\n", 2)[0]
		if header == "" {
			t.Errorf("%s -format csv: empty output", id)
		}
	}
}
