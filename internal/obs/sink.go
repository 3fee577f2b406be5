package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Format selects a metrics sink.
type Format string

// The supported metric output formats.
const (
	// FormatJSON is a single JSON document with sorted keys.
	FormatJSON Format = "json"
	// FormatProm is the Prometheus text exposition format.
	FormatProm Format = "prom"
	// FormatTable is the human summary table (includes volatile
	// metrics, which the machine formats omit).
	FormatTable Format = "table"
)

// ParseFormat validates a -metrics-format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatJSON, FormatProm, FormatTable:
		return Format(s), nil
	}
	return "", fmt.Errorf("obs: unknown metrics format %q (want json, prom, or table)", s)
}

// Write renders the registry in the given format.
func (r *Registry) Write(w io.Writer, f Format) error {
	switch f {
	case FormatJSON:
		return r.WriteJSON(w)
	case FormatProm:
		return r.WritePrometheus(w)
	case FormatTable:
		return r.WriteTable(w)
	}
	return fmt.Errorf("obs: unknown metrics format %q", string(f))
}

// WriteFile renders the registry in the given format to the file at
// path, or to stdout when path is "-" (a CLI's -metrics flag).
func (r *Registry) WriteFile(path string, stdout io.Writer, f Format) error {
	if path == "-" {
		return r.Write(stdout, f)
	}
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating metrics file: %w", err)
	}
	if err := r.Write(file, f); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// jsonHistogram is the JSON shape of one histogram.
type jsonHistogram struct {
	Base      int64   `json:"base"`
	Buckets   []int64 `json:"buckets"`
	Underflow int64   `json:"underflow"`
	Overflow  int64   `json:"overflow"`
	Count     int64   `json:"count"`
	Sum       int64   `json:"sum"`
}

// WriteJSON renders the stable (non-volatile) metrics as one JSON
// document. Map keys are sorted by encoding/json and all values are
// integers or exact sums, so the document is byte-identical across
// runs that aggregate the same events, regardless of worker count.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	doc := struct {
		Counters   map[string]int64         `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]jsonHistogram `json:"histograms"`
	}{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]jsonHistogram, len(r.hists)),
	}
	for name, c := range r.counters {
		doc.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		if g.volatile {
			continue
		}
		doc.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		jh := jsonHistogram{Base: h.base, Buckets: make([]int64, h.buckets)}
		for i := range jh.Buckets {
			jh.Buckets[i] = atomic.LoadInt64(&h.counts[i])
		}
		jh.Underflow = h.under.Load()
		jh.Overflow = h.over.Load()
		jh.Count = h.Count()
		jh.Sum = h.Sum()
		doc.Histograms[name] = jh
	}
	r.mu.Unlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WritePrometheus renders the stable metrics in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, counter and
// gauge samples, and cumulative le-bucketed histograms. Output is
// sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	for _, name := range sortedNames(r.counters) {
		c := r.counters[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, c.help, name, name, c.Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(r.gauges) {
		g := r.gauges[name]
		if g.volatile {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, g.help, name, name, formatFloat(g.Value())); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(r.hists) {
		h := r.hists[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, h.help, name); err != nil {
			return err
		}
		cum := h.under.Load()
		for i := 0; i < h.buckets; i++ {
			cum += atomic.LoadInt64(&h.counts[i])
			// The bucket's upper edge is the next bucket's lower edge.
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, h.BucketLow(i+1), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, h.Count(), name, h.Sum(), name, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders a human summary: every metric including the
// volatile ones (marked), with histograms expanded through the
// stats.LogHistogram renderer.
func (r *Registry) WriteTable(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	var b strings.Builder
	rows := make([][3]string, 0, len(r.counters)+len(r.gauges))
	for _, name := range sortedNames(r.counters) {
		rows = append(rows, [3]string{name, "counter", strconv.FormatInt(r.counters[name].Value(), 10)})
	}
	for _, name := range sortedNames(r.gauges) {
		g := r.gauges[name]
		typ := "gauge"
		if g.volatile {
			typ = "gauge (volatile)"
		}
		rows = append(rows, [3]string{name, typ, formatFloat(g.Value())})
	}
	width := 0
	for _, row := range rows {
		if len(row[0]) > width {
			width = len(row[0])
		}
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-*s  %-16s  %s\n", width, row[0], row[1], row[2])
	}
	for _, name := range sortedNames(r.hists) {
		h := r.hists[name]
		fmt.Fprintf(&b, "\n%s (histogram, %s)\n", name, h.help)
		snap := h.Snapshot()
		if snap.Total() == 0 {
			b.WriteString("  (empty)\n")
			continue
		}
		for _, line := range strings.Split(strings.TrimRight(snap.String(), "\n"), "\n") {
			b.WriteString("  " + line + "\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a gauge value with minimal, stable digits.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
