package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// MarshalCanonical encodes the report as canonical JSON: two-space
// indentation, struct-declaration field order, no maps anywhere in the
// document, and a trailing newline. Two runs that produce equal reports
// produce byte-identical documents, which is what lets the committed
// reference set under testdata/reports/ be compared with plain diff.
func (r *Report) MarshalCanonical() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: encoding %s: %w", r.Prov.Experiment, err)
	}
	return append(b, '\n'), nil
}

// Encode writes the canonical JSON document to w.
func (r *Report) Encode(w io.Writer) error {
	b, err := r.MarshalCanonical()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Decode reads one canonical JSON report. Decode(Encode(r)) equals r
// for every report the experiments layer produces (pinned by the
// registry-wide round-trip test).
func Decode(rd io.Reader) (*Report, error) {
	dec := json.NewDecoder(rd)
	var r Report
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("report: decoding: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("report: schema %d not supported (want %d)", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// DecodeBytes decodes a canonical JSON document from memory.
func DecodeBytes(b []byte) (*Report, error) {
	return Decode(bytes.NewReader(b))
}
