package costmodel

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"memcon/internal/dram"
)

// The three crossover loops the model ran before one solver priced
// every currency, kept as test-only references: the latency loop over
// integer costs, its copy for footnote 6's accelerated Copy-and-Compare
// tests, and the energy loop over float prices.

var errRef = errors.New("reference: no crossover")

// refValidate is the validation the references ran: only the two
// channel modes were known.
func refValidate(c Config) error {
	if c.HiRefInterval <= 0 || c.LoRefInterval <= c.HiRefInterval {
		return fmt.Errorf("reference: bad intervals %d/%d", c.HiRefInterval, c.LoRefInterval)
	}
	if c.Mode != ReadCompare && c.Mode != CopyCompare {
		return fmt.Errorf("reference: unknown test mode %d", c.Mode)
	}
	return nil
}

// refLatencyLoop is the latency loop: integer accumulated costs, a
// 2^40 ns limit.
func refLatencyLoop(c Config, testCost dram.Nanoseconds) (dram.Nanoseconds, error) {
	refresh := c.Timing.TRAS + c.Timing.TRP
	step := c.HiRefInterval
	for t := step; t <= dram.Nanoseconds(1)<<40; t += step {
		refreshes := t/c.LoRefInterval - 1
		if refreshes < 0 {
			refreshes = 0
		}
		if testCost+refreshes*refresh <= (t/c.HiRefInterval)*refresh {
			return t, nil
		}
	}
	return 0, errRef
}

// refMinWriteInterval is Config.MinWriteInterval: a Read-and-Compare
// test is two row cycles, a Copy-and-Compare test three.
func refMinWriteInterval(c Config) (dram.Nanoseconds, error) {
	if err := refValidate(c); err != nil {
		return 0, err
	}
	cost := 2 * c.Timing.RowCycle()
	if c.Mode == CopyCompare {
		cost = 3 * c.Timing.RowCycle()
	}
	return refLatencyLoop(c, cost)
}

// refAcceleratedMinWriteInterval is AcceleratedConfig.MinWriteInterval
// for a base configuration and an acceleration (0 none, 1 RowClone
// copy, 2 in-DRAM compare), its test cost AcceleratedTestCost's.
func refAcceleratedMinWriteInterval(base Config, accel int) (dram.Nanoseconds, error) {
	base.Mode = CopyCompare
	if err := refValidate(base); err != nil {
		return 0, err
	}
	t := base.Timing
	inDRAMOp := 2*t.TRAS + t.TRP
	cost := []dram.Nanoseconds{3 * t.RowCycle(), inDRAMOp + t.RowCycle(), 2 * inDRAMOp}[accel]
	return refLatencyLoop(base, cost)
}

// refEnergyMinWriteInterval is Config.EnergyMinWriteInterval over the
// old three-price EnergyCosts (refresh, activate+precharge, column).
func refEnergyMinWriteInterval(c Config, refreshNJ, actPreNJ, columnNJ float64) (dram.Nanoseconds, error) {
	if err := refValidate(c); err != nil {
		return 0, err
	}
	if refreshNJ <= 0 {
		return 0, fmt.Errorf("reference: refresh energy %v", refreshNJ)
	}
	rowCycle := actPreNJ + float64(c.Timing.BlocksPerRow)*columnNJ
	cycles := 2.0
	if c.Mode == CopyCompare {
		cycles = 3.0
	}
	testNJ := cycles * rowCycle
	step := c.HiRefInterval
	for t := step; t <= dram.Nanoseconds(1)<<42; t += step {
		hiOps := float64(t / c.HiRefInterval)
		loOps := float64(t/c.LoRefInterval - 1)
		if loOps < 0 {
			loOps = 0
		}
		if testNJ+loOps*refreshNJ <= hiOps*refreshNJ {
			return t, nil
		}
	}
	return 0, errRef
}

// sameOutcome reports whether two solver results agree: the same
// crossover, or both an error.
func sameOutcome(a dram.Nanoseconds, aerr error, b dram.Nanoseconds, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil
	}
	return a == b
}

// randomConfig draws HI/LO intervals and a DDR timing set. The bounds
// keep every latency crossover below 2^39 ns (test cost <= 6264 ns,
// refresh >= 1 ns, 1 - Hi/Lo >= 1/5, HI-REF <= 16 ms), under both the
// reference's 2^40 ns search limit and the solver's 2^42 ns.
func randomConfig(rng *rand.Rand) Config {
	hi := dram.Millisecond + rng.Int63n(15*dram.Millisecond)
	lo := hi + hi/4 + rng.Int63n(7*hi)
	return Config{
		Timing: dram.Timing{
			TRAS:         1 + rng.Int63n(40),
			TRP:          rng.Int63n(21),
			TRCD:         1 + rng.Int63n(20),
			TCCD:         1 + rng.Int63n(8),
			BlocksPerRow: 1 + rng.Intn(256),
		},
		HiRefInterval: hi,
		LoRefInterval: lo,
	}
}

// The one solver reproduces all three parent loops on random HI/LO
// intervals, timings, modes and energies: the same crossover, or an
// error where they erred.
func TestSolverMatchesReferenceLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 400; i++ {
		c := randomConfig(rng)
		b := Budget{ActPreNJ: 40 * rng.Float64(), ReadNJ: 10 * rng.Float64(), RefreshNJ: 4 + 28*rng.Float64()}
		if i%4 == 0 { // integer prices, like the shipped budget
			b = Budget{ActPreNJ: float64(rng.Intn(41)), ReadNJ: float64(rng.Intn(11)), RefreshNJ: float64(4 + rng.Intn(29))}
		}
		for _, m := range []TestMode{ReadCompare, CopyCompare, RowCloneCopy, InDRAMCompare} {
			c.Mode = m
			got, gerr := c.MinWriteInterval()
			var want dram.Nanoseconds
			var werr error
			switch m {
			case ReadCompare, CopyCompare:
				want, werr = refMinWriteInterval(c)
			case RowCloneCopy:
				want, werr = refAcceleratedMinWriteInterval(c, 1)
			case InDRAMCompare:
				want, werr = refAcceleratedMinWriteInterval(c, 2)
			}
			if werr != nil || !sameOutcome(got, gerr, want, werr) {
				t.Fatalf("case %d %+v: latency crossover %d (%v), reference %d (%v)", i, c, got, gerr, want, werr)
			}
			if m == CopyCompare {
				if acc, err := refAcceleratedMinWriteInterval(c, 0); err != nil || acc != got {
					t.Fatalf("case %d %+v: unaccelerated reference %d (%v), solver %d", i, c, acc, err, got)
				}
			}
			// The crossover is exact: at it MEMCON costs at most HI-REF,
			// one HI-REF step earlier strictly more.
			if c.MemconCost(got) > c.HiRefCost(got) {
				t.Fatalf("case %d %+v: MEMCON still dearer at its crossover %d", i, c, got)
			}
			if prev := got - c.HiRefInterval; prev > 0 && c.MemconCost(prev) <= c.HiRefCost(prev) {
				t.Fatalf("case %d %+v: MEMCON already cheaper one step before %d", i, c, got)
			}

			egot, egerr := c.EnergyMinWriteInterval(b)
			ewant, ewerr := refEnergyMinWriteInterval(c, b.RefreshNJ, b.ActPreNJ, b.ReadNJ)
			if !sameOutcome(egot, egerr, ewant, ewerr) {
				t.Fatalf("case %d %+v %+v: energy crossover %d (%v), reference %d (%v)", i, c, b, egot, egerr, ewant, ewerr)
			}
			if channel := m == ReadCompare || m == CopyCompare; channel == (egerr != nil) {
				t.Fatalf("case %d %s: energy error %v", i, m, egerr)
			}
		}
	}
}

// The error paths agree too: bad intervals, a zero refresh price, and
// a refresh so cheap (0 ns) that a test is never repaid.
func TestSolverMatchesReferenceErrors(t *testing.T) {
	base := DefaultConfig()
	cases := map[string]Config{}
	c := base
	c.HiRefInterval = 0
	cases["zero HI-REF"] = c
	c = base
	c.LoRefInterval = c.HiRefInterval
	cases["LO-REF = HI-REF"] = c
	c = base
	c.Mode = InDRAMCompare + 1
	cases["unknown mode"] = c
	c = base
	c.Timing.TRAS, c.Timing.TRP = 0, 0
	cases["free refresh"] = c
	for name, c := range cases {
		got, gerr := c.MinWriteInterval()
		want, werr := refMinWriteInterval(c)
		if gerr == nil || !sameOutcome(got, gerr, want, werr) {
			t.Errorf("%s: solver %d (%v), reference %d (%v)", name, got, gerr, want, werr)
		}
	}
	b := DDR3Budget()
	b.RefreshNJ = 0
	got, gerr := base.EnergyMinWriteInterval(b)
	want, werr := refEnergyMinWriteInterval(base, 0, b.ActPreNJ, b.ReadNJ)
	if gerr == nil || !sameOutcome(got, gerr, want, werr) {
		t.Errorf("zero refresh energy: solver %d (%v), reference %d (%v)", got, gerr, want, werr)
	}
}

// The shipped figures: Fig. 6's four crossovers, footnote 6's
// accelerated ones and the energy crossover equal the references'.
func TestSolverMatchesReferenceAtPaperConfigs(t *testing.T) {
	for _, lo := range []dram.Nanoseconds{64, 128, 256} {
		for _, m := range []TestMode{ReadCompare, CopyCompare} {
			c := DefaultConfig()
			c.LoRefInterval = lo * dram.Millisecond
			c.Mode = m
			got, err := c.MinWriteInterval()
			want, werr := refMinWriteInterval(c)
			if err != nil || werr != nil || got != want {
				t.Errorf("%s @%d ms: %d (%v), reference %d (%v)", m, lo, got, err, want, werr)
			}
		}
	}
	for accel, m := range []TestMode{CopyCompare, RowCloneCopy, InDRAMCompare} {
		c := DefaultConfig()
		c.Mode = m
		got, err := c.MinWriteInterval()
		want, werr := refAcceleratedMinWriteInterval(DefaultConfig(), accel)
		if err != nil || werr != nil || got != want {
			t.Errorf("%s: %d (%v), reference %d (%v)", m, got, err, want, werr)
		}
	}
	b := DDR3Budget()
	got, err := DefaultConfig().EnergyMinWriteInterval(b)
	want, werr := refEnergyMinWriteInterval(DefaultConfig(), 16, 20, 6)
	if err != nil || werr != nil || got != want {
		t.Errorf("energy: %d (%v), reference %d (%v)", got, err, want, werr)
	}
}
