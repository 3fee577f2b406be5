package parallel

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"memcon/internal/obs"
)

func TestPoolStatsCollection(t *testing.T) {
	ps := NewPoolStats()
	ctx := ContextWithStats(context.Background(), ps)
	var ran atomic.Int64
	if err := ForEach(ctx, 20, 4, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 20 {
		t.Fatalf("ran %d units, want 20", ran.Load())
	}
	var units int64
	for id, ws := range ps.Workers() {
		if id < 0 || id >= 4 {
			t.Errorf("worker id %d outside pool of 4", id)
		}
		units += ws.Units
	}
	if units != 20 {
		t.Errorf("recorded %d units, want 20", units)
	}
}

func TestPoolStatsSerialPath(t *testing.T) {
	ps := NewPoolStats()
	ctx := ContextWithStats(context.Background(), ps)
	if err := ForEach(ctx, 5, 1, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	ws := ps.Workers()
	if len(ws) != 1 || ws[0].Units != 5 {
		t.Errorf("serial stats = %+v, want worker 0 with 5 units", ws)
	}
}

func TestPoolStatsAbsentFromContext(t *testing.T) {
	if StatsFrom(context.Background()) != nil {
		t.Error("StatsFrom on a bare context must be nil")
	}
	if StatsFrom(nil) != nil {
		t.Error("StatsFrom(nil) must be nil")
	}
	// A nil collector is inert: sweeps without one must be unaffected.
	if err := ForEach(context.Background(), 8, 2, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestPoolStatsExportVolatileOnly(t *testing.T) {
	ps := NewPoolStats()
	ps.Add(0, 3, 1500)
	ps.Add(1, 2, 900)
	ps.Add(0, 1, 100) // accumulates into worker 0
	ws := ps.Workers()
	if ws[0].Units != 4 || ws[0].BusyNs != 1600 {
		t.Errorf("worker 0 = %+v, want 4 units / 1600 ns", ws[0])
	}

	reg := obs.NewRegistry()
	ps.ExportTo(reg)
	var js, table strings.Builder
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(js.String(), "pool_worker") {
		t.Errorf("pool stats leaked into the deterministic JSON sink:\n%s", js.String())
	}
	if err := reg.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "pool_worker_0_units") {
		t.Errorf("pool stats missing from the table sink:\n%s", table.String())
	}
}
