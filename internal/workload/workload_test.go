package workload

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"memcon/internal/pareto"
	"memcon/internal/stats"
)

func TestAppsInventory(t *testing.T) {
	apps := Apps()
	if len(apps) != 12 {
		t.Fatalf("got %d apps, want 12 (Table 1)", len(apps))
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if seen[a.Name] {
			t.Errorf("duplicate app %q", a.Name)
		}
		seen[a.Name] = true
		if a.DurationSec <= 0 || a.Pages <= 0 || a.HotClusterLen <= 0 || a.HotPauseMs <= 0 {
			t.Errorf("%s: non-positive parameters: %+v", a.Name, a)
		}
		if d := a.IdleDist; !(d.Xm > 0 && d.Alpha > 0) || math.IsInf(d.Xm, 0) || math.IsInf(d.Alpha, 0) {
			t.Errorf("%s: invalid idle distribution %+v", a.Name, a.IdleDist)
		}
		if a.HotFraction < 0 || a.HotFraction > 0.1 {
			t.Errorf("%s: implausible hot fraction %v", a.Name, a.HotFraction)
		}
		if a.EpisodeExtra < 0 || a.EpisodeExtra > 0.5 {
			t.Errorf("%s: implausible episode-extra probability %v", a.Name, a.EpisodeExtra)
		}
	}
	for _, name := range []string{"ACBrotherHood", "Netflix", "SystemMgt"} {
		if !seen[name] {
			t.Errorf("representative workload %q missing", name)
		}
	}
}

func TestAppByName(t *testing.T) {
	a, err := AppByName("Netflix")
	if err != nil {
		t.Fatal(err)
	}
	if a.Type != "Video streaming" {
		t.Errorf("Netflix type = %q", a.Type)
	}
	if _, err := AppByName("nonexistent"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	app, _ := AppByName("BlurMotion")
	a := app.Generate(1, 0.1)
	b := app.Generate(1, 0.1)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("same seed different lengths: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	c := app.Generate(2, 0.1)
	if len(a.Events) == len(c.Events) {
		same := true
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestGenerateValidTrace(t *testing.T) {
	app, _ := AppByName("SystemMgt")
	tr := app.Generate(7, 0.05)
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	if tr.Name != "SystemMgt" {
		t.Errorf("trace name = %q", tr.Name)
	}
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	if tr.Pages() < 8 {
		t.Errorf("too few pages: %d", tr.Pages())
	}
}

func TestGenerateScaleClamping(t *testing.T) {
	app, _ := AppByName("BlurMotion")
	// Out-of-range scales fall back to full scale rather than failing.
	for _, scale := range []float64{-1, math.NaN()} {
		if tr := app.Generate(1, scale); tr.Pages() < app.Pages {
			t.Errorf("scale %v should mean full size, got %d pages", scale, tr.Pages())
		}
	}
	if got, want := len(app.GenerateReads(1, math.NaN()).Events), len(app.GenerateReads(1, 1).Events); got != want {
		t.Errorf("GenerateReads at scale NaN: %d events, want the full-scale %d", got, want)
	}
}

// The statistical contract the paper's analysis needs (Section 4.1):
// the overwhelming majority of writes occur within 1 ms of the previous
// write, yet intervals longer than 1024 ms carry most of the time.
func TestGeneratedTraceMatchesPaperStatistics(t *testing.T) {
	for _, name := range []string{"ACBrotherHood", "Netflix", "SystemMgt"} {
		app, err := AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := app.Generate(42, 0.15)
		intervals := tr.Intervals(true)
		if len(intervals) < 1000 {
			t.Fatalf("%s: too few intervals (%d) for statistics", name, len(intervals))
		}
		var under1ms, count int
		var total, longTime float64
		for _, iv := range intervals {
			count++
			if iv < 1 {
				under1ms++
			}
			total += iv
			if iv > 1024 {
				longTime += iv
			}
		}
		shortFrac := float64(under1ms) / float64(count)
		if shortFrac < 0.90 {
			t.Errorf("%s: only %.1f%% of writes under 1 ms, want > 90%% (paper: >95%%)", name, 100*shortFrac)
		}
		timeShare := longTime / total
		if timeShare < 0.6 {
			t.Errorf("%s: long intervals carry %.1f%% of time, want > 60%% (paper avg: 89.5%%)", name, 100*timeShare)
		}
	}
}

// Fig. 8: the tail of the write-interval distribution fits a Pareto
// distribution with high R².
func TestGeneratedTraceParetoTail(t *testing.T) {
	app, _ := AppByName("Netflix")
	tr := app.Generate(42, 0.15)
	fit, err := pareto.FitCCDFTail(tr.Intervals(false), nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.9 {
		t.Errorf("Pareto tail fit R2 = %.3f, want >= 0.9 (paper: >0.93)", fit.R2)
	}
	if fit.Dist.Alpha <= 0.2 || fit.Dist.Alpha > 2.5 {
		t.Errorf("fitted alpha = %.2f, implausible for configured tail", fit.Dist.Alpha)
	}
}

func TestGenerateReads(t *testing.T) {
	app, _ := AppByName("FinalCutPro")
	reads := app.GenerateReads(3, 0.05)
	if err := reads.Validate(); err != nil {
		t.Fatalf("read trace invalid: %v", err)
	}
	if len(reads.Events) == 0 {
		t.Fatal("empty read trace")
	}
	if reads.Name != "FinalCutPro-reads" {
		t.Errorf("name = %q", reads.Name)
	}
	// Deterministic.
	again := app.GenerateReads(3, 0.05)
	if len(again.Events) != len(reads.Events) {
		t.Error("read generation not deterministic")
	}
	// Reads are independent of the write stream (different seed space).
	writes := app.Generate(3, 0.05)
	if len(writes.Events) == len(reads.Events) {
		same := true
		for i := range writes.Events {
			if writes.Events[i] != reads.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("read trace identical to write trace")
		}
	}
}

func TestSPECContentsInventory(t *testing.T) {
	specs := SPECContents()
	if len(specs) != 20 {
		t.Fatalf("got %d SPEC content specs, want 20 (Fig. 4)", len(specs))
	}
	seen := map[string]bool{}
	for _, c := range specs {
		if seen[c.Name] {
			t.Errorf("duplicate benchmark %q", c.Name)
		}
		seen[c.Name] = true
		if c.ZeroRowFraction < 0 || c.ZeroRowFraction > 1 ||
			c.OnesDensity < 0 || c.OnesDensity > 1 ||
			c.WordSparsity < 0 || c.WordSparsity > 1 {
			t.Errorf("%s: parameter out of range: %+v", c.Name, c)
		}
	}
}

func TestContentByName(t *testing.T) {
	c, err := ContentByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "mcf" {
		t.Errorf("name = %q", c.Name)
	}
	if _, err := ContentByName("quake"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestImageStatistics(t *testing.T) {
	c := ContentSpec{Name: "synthetic", ZeroRowFraction: 0.5, OnesDensity: 0.5, WordSparsity: 0}
	img := c.Image(2000, 512, 0, 1)
	if len(img) != 2000 {
		t.Fatalf("rows = %d", len(img))
	}
	zero := 0
	var density []float64
	for _, row := range img {
		ones := 0
		for _, w := range row {
			ones += bits.OnesCount64(w)
		}
		if ones == 0 {
			zero++
		} else {
			density = append(density, float64(ones)/512)
		}
	}
	zf := float64(zero) / 2000
	if zf < 0.45 || zf > 0.55 {
		t.Errorf("zero-row fraction = %.3f, want ~0.5", zf)
	}
	if m := stats.Mean(density); m < 0.45 || m > 0.55 {
		t.Errorf("ones density = %.3f, want ~0.5", m)
	}
}

func TestImageDensityOrdering(t *testing.T) {
	sparse := ContentSpec{Name: "s", ZeroRowFraction: 0, OnesDensity: 0.2, WordSparsity: 0}
	dense := ContentSpec{Name: "d", ZeroRowFraction: 0, OnesDensity: 0.5, WordSparsity: 0}
	countOnes := func(c ContentSpec) int {
		total := 0
		for _, row := range c.Image(500, 512, 0, 3) {
			for _, w := range row {
				total += bits.OnesCount64(w)
			}
		}
		return total
	}
	if countOnes(sparse) >= countOnes(dense) {
		t.Error("sparse content has at least as many ones as dense content")
	}
}

func TestImagePhasesDiffer(t *testing.T) {
	c, _ := ContentByName("gcc")
	a := c.Image(100, 512, 0, 1)
	b := c.Image(100, 512, 1, 1)
	same := 0
	for i := range a {
		if slices.Equal(a[i], b[i]) {
			same++
		}
	}
	// Zero rows can coincide; non-zero rows should essentially never.
	if same > 60 {
		t.Errorf("%d/100 rows identical across phases", same)
	}
}

func TestImageDeterministic(t *testing.T) {
	c, _ := ContentByName("lbm")
	a := c.Image(50, 512, 2, 9)
	b := c.Image(50, 512, 2, 9)
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("row %d differs between identical generations", i)
		}
	}
}

func TestBiasedWordExtremes(t *testing.T) {
	c := ContentSpec{Name: "x", ZeroRowFraction: 0, OnesDensity: 0, WordSparsity: 0}
	for _, row := range c.Image(10, 256, 0, 1) {
		for _, w := range row {
			if w != 0 {
				t.Fatal("density 0 produced ones")
			}
		}
	}
	c.OnesDensity = 1
	for _, row := range c.Image(10, 256, 0, 1) {
		for _, w := range row {
			if w != ^uint64(0) {
				t.Fatal("density 1 produced zeros")
			}
		}
	}
}

func TestSimBenchmarks(t *testing.T) {
	bench := SimBenchmarks()
	if len(bench) < 20 {
		t.Fatalf("got %d benchmarks, want >= 20", len(bench))
	}
	names := map[string]bool{}
	for _, b := range bench {
		if names[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		names[b.Name] = true
		if b.MPKI <= 0 || b.BaseIPC <= 0 {
			t.Errorf("%s: non-positive intensity params", b.Name)
		}
		if b.RowHitRate < 0 || b.RowHitRate > 1 || b.WriteFraction < 0 || b.WriteFraction > 1 {
			t.Errorf("%s: rate out of range", b.Name)
		}
	}
	if !names["tpcc"] || !names["tpch"] {
		t.Error("TPC server benchmarks missing")
	}
}

func TestMixes(t *testing.T) {
	mixes := Mixes(30, 4, 1)
	if len(mixes) != 30 {
		t.Fatalf("got %d mixes, want 30", len(mixes))
	}
	for i, m := range mixes {
		if len(m) != 4 {
			t.Errorf("mix %d has %d benchmarks, want 4", i, len(m))
		}
	}
	again := Mixes(30, 4, 1)
	for i := range mixes {
		for j := range mixes[i] {
			if mixes[i][j].Name != again[i][j].Name {
				t.Fatal("mixes not deterministic")
			}
		}
	}
	other := Mixes(30, 4, 2)
	diff := false
	for i := range mixes {
		for j := range mixes[i] {
			if mixes[i][j].Name != other[i][j].Name {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical mixes")
	}
}
