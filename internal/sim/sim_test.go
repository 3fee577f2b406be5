package sim

import (
	"testing"

	"memcon/internal/dram"
	"memcon/internal/memctrl"
	"memcon/internal/workload"
)

func testMix(n int) []workload.CoreParams {
	bench := workload.SimBenchmarks()
	mix := make([]workload.CoreParams, n)
	for i := range mix {
		mix[i] = bench[i%len(bench)]
	}
	return mix
}

func simTime() dram.Nanoseconds { return dram.Millisecond / 2 }

// MixSpeedup runs baseline and scheme memory configurations over the
// same mix and seed and returns the weighted speedup of scheme over
// baseline.
func MixSpeedup(mix []workload.CoreParams, baseMem, schemeMem memctrl.Config, simTime dram.Nanoseconds, seed int64) (float64, error) {
	base, err := Run(Config{Mix: mix, Mem: baseMem, SimTime: simTime, Seed: seed})
	if err != nil {
		return 0, err
	}
	scheme, err := Run(Config{Mix: mix, Mem: schemeMem, SimTime: simTime, Seed: seed})
	if err != nil {
		return 0, err
	}
	return WeightedSpeedup(base, scheme)
}

func TestConfigValidate(t *testing.T) {
	good := Config{Mix: testMix(1), Mem: memctrl.DefaultConfig(), SimTime: simTime()}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if err := (Config{Mem: memctrl.DefaultConfig(), SimTime: 1}).Validate(); err == nil {
		t.Error("empty mix accepted")
	}
	if err := (Config{Mix: testMix(1), Mem: memctrl.DefaultConfig()}).Validate(); err == nil {
		t.Error("zero sim time accepted")
	}
	bad := memctrl.DefaultConfig()
	bad.Banks = 0
	if err := (Config{Mix: testMix(1), Mem: bad, SimTime: 1}).Validate(); err == nil {
		t.Error("invalid mem config accepted")
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(Config{Mix: testMix(2), Mem: memctrl.DefaultConfig(), SimTime: simTime(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 2 {
		t.Fatalf("IPC entries = %d, want 2", len(res.IPC))
	}
	for i, ipc := range res.IPC {
		if ipc <= 0 {
			t.Errorf("core %d IPC = %v, want positive", i, ipc)
		}
		if ipc > testMix(2)[i].BaseIPC {
			t.Errorf("core %d IPC %v exceeds its compute-bound IPC %v", i, ipc, testMix(2)[i].BaseIPC)
		}
	}
	if res.Mem.Requests == 0 {
		t.Error("no memory requests issued")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Mix: testMix(2), Mem: memctrl.DefaultConfig(), SimTime: simTime(), Seed: 42}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Errorf("core %d IPC differs across identical runs", i)
		}
	}
}

// The paper's central performance claim: stretching the refresh period
// (fewer refresh operations) improves IPC, and the improvement grows
// with chip density.
func TestRefreshReductionImprovesIPC(t *testing.T) {
	mix := testMix(1)
	speedupAt := func(density dram.Density) float64 {
		base := memctrl.DefaultConfig()
		base.Density = density
		scheme := base
		p, err := memctrl.StretchedRefreshPeriod(dram.RefreshWindowAggressive, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		scheme.RefreshPeriod = p
		s, err := MixSpeedup(mix, base, scheme, simTime(), 7)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s8 := speedupAt(dram.Density8Gb)
	s32 := speedupAt(dram.Density32Gb)
	if s8 <= 1.0 {
		t.Errorf("8Gb speedup = %v, want > 1", s8)
	}
	if s32 <= s8 {
		t.Errorf("speedup should grow with density: 8Gb %v vs 32Gb %v", s8, s32)
	}
}

func TestTestTrafficCostsLittle(t *testing.T) {
	// Table 3: 256 concurrent tests per 64 ms cost under ~2% on a
	// single core.
	mix := testMix(1)
	clean := memctrl.DefaultConfig()
	loaded := clean
	loaded.TestsPerWindow = 256
	s, err := MixSpeedup(mix, clean, loaded, 2*simTime(), 9)
	if err != nil {
		t.Fatal(err)
	}
	loss := 1 - s
	if loss < -0.01 {
		t.Errorf("test traffic made the system faster: loss %v", loss)
	}
	if loss > 0.06 {
		t.Errorf("256 tests/64ms cost %.1f%%, paper reports <2%%", 100*loss)
	}
}

func TestWeightedSpeedupErrors(t *testing.T) {
	if _, err := WeightedSpeedup(Result{IPC: []float64{1}}, Result{IPC: []float64{1, 2}}); err == nil {
		t.Error("core count mismatch accepted")
	}
	if _, err := WeightedSpeedup(Result{}, Result{}); err == nil {
		t.Error("empty results accepted")
	}
	if _, err := WeightedSpeedup(Result{IPC: []float64{0}}, Result{IPC: []float64{1}}); err == nil {
		t.Error("zero baseline IPC accepted")
	}
}

func TestWeightedSpeedupIdentity(t *testing.T) {
	r := Result{IPC: []float64{1.5, 0.7}}
	s, err := WeightedSpeedup(r, r)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1.0 {
		t.Errorf("self speedup = %v, want 1", s)
	}
}

func TestFourCoreContention(t *testing.T) {
	// Four cores sharing one channel must each achieve lower IPC than
	// the same benchmark running alone.
	mem := memctrl.DefaultConfig()
	mem.Density = dram.Density32Gb
	mix4 := []workload.CoreParams{}
	bench := workload.SimBenchmarks()[3] // mcf: memory-bound
	for i := 0; i < 4; i++ {
		mix4 = append(mix4, bench)
	}
	solo, err := Run(Config{Mix: mix4[:1], Mem: mem, SimTime: simTime(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(Config{Mix: mix4, Mem: mem, SimTime: simTime(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if four.IPC[0] >= solo.IPC[0] {
		t.Errorf("4-core IPC %v not below solo IPC %v under contention", four.IPC[0], solo.IPC[0])
	}
}

func TestMemoryBoundBenchmarksSufferMore(t *testing.T) {
	// A high-MPKI benchmark loses relatively more IPC to aggressive
	// refresh than a compute-bound one.
	mem := memctrl.DefaultConfig()
	mem.Density = dram.Density32Gb
	relaxed := mem
	p, _ := memctrl.StretchedRefreshPeriod(dram.RefreshWindowAggressive, 0.75)
	relaxed.RefreshPeriod = p

	bench := workload.SimBenchmarks()
	var memBound, computeBound workload.CoreParams
	for _, b := range bench {
		if b.Name == "mcf" {
			memBound = b
		}
		if b.Name == "perl" {
			computeBound = b
		}
	}
	sMem, err := MixSpeedup([]workload.CoreParams{memBound}, mem, relaxed, simTime(), 11)
	if err != nil {
		t.Fatal(err)
	}
	sCompute, err := MixSpeedup([]workload.CoreParams{computeBound}, mem, relaxed, simTime(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if sMem <= sCompute {
		t.Errorf("memory-bound speedup %v should exceed compute-bound %v", sMem, sCompute)
	}
}
