package fleet

import (
	"bytes"
	"cmp"
	"context"
	"testing"
)

// compareEvents orders events canonically: (Module, At, Rank, Bank,
// Row, Col), lexicographically.
func compareEvents(a, b Event) int {
	return cmp.Or(cmp.Compare(a.Module, b.Module), cmp.Compare(a.At, b.At),
		cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Bank, b.Bank),
		cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
}

// TestShardingInvariance is the tentpole property test: a 1,000-module
// fleet, one work unit per module, produces a byte-identical CE log —
// and identical ground truth — across worker counts 1/4/8. Scheduling
// must never leak into the result.
func TestShardingInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000-module fleet sweep")
	}
	base := Config{Modules: 1000, Seed: 42, Scale: 0.05}

	var ref []byte
	var refInfo []ModuleInfo
	for _, workers := range []int{1, 4, 8} {
		cfg := base
		cfg.Workers = workers
		log, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteLog(&buf, log); err != nil {
			t.Fatalf("workers=%d: encoding: %v", workers, err)
		}
		if ref == nil {
			ref, refInfo = buf.Bytes(), log.Info
			if len(log.Events) == 0 {
				t.Fatal("reference run produced no CE events; the property test is vacuous")
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			t.Errorf("workers=%d: CE log differs from workers=1 (%d vs %d bytes)", workers, buf.Len(), len(ref))
		}
		if len(log.Info) != len(refInfo) {
			t.Fatalf("workers=%d: %d Info entries, want %d", workers, len(log.Info), len(refInfo))
		}
		for m := range log.Info {
			if log.Info[m] != refInfo[m] {
				t.Errorf("workers=%d: Info[%d] = %+v, want %+v", workers, m, log.Info[m], refInfo[m])
			}
		}
	}
}

// TestRunLogInvariants checks the structural contract of a run's output
// on a small fleet: canonical event order, consistent ground truth, and
// retirement at the first UE.
func TestRunLogInvariants(t *testing.T) {
	log, err := Run(context.Background(), Config{Modules: 24, Seed: 7, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if log.Modules != 24 || log.Epochs != DefaultEpochs || log.EpochNs != EpochNs {
		t.Fatalf("log header = (%d, %d, %d)", log.Modules, log.Epochs, log.EpochNs)
	}
	if len(log.Info) != log.Modules {
		t.Fatalf("%d Info entries for %d modules", len(log.Info), log.Modules)
	}
	for i := 1; i < len(log.Events); i++ {
		if compareEvents(log.Events[i], log.Events[i-1]) < 0 {
			t.Fatalf("events %d..%d out of canonical order: %+v then %+v",
				i-1, i, log.Events[i-1], log.Events[i])
		}
	}
	ces := make([]int, log.Modules)
	lastAt := make([]int64, log.Modules)
	for _, ev := range log.Events {
		ces[ev.Module]++
		lastAt[ev.Module] = ev.At
		if ev.At <= 0 || ev.At%EpochNs != 0 || ev.At > int64(log.Epochs)*EpochNs {
			t.Fatalf("event timestamp %d is not a scrub instant", ev.At)
		}
	}
	for m, info := range log.Info {
		if info.Module != m {
			t.Fatalf("Info[%d].Module = %d", m, info.Module)
		}
		if info.CEs != ces[m] {
			t.Errorf("module %d: Info.CEs = %d, log has %d", m, info.CEs, ces[m])
		}
		if info.Class == "" || info.Content == "" || info.WeakScale <= 0 {
			t.Errorf("module %d: incomplete ground truth %+v", m, info)
		}
		switch {
		case info.UEAtNs == -1: // survived
		case info.UEAtNs <= 0 || info.UEAtNs%EpochNs != 0:
			t.Errorf("module %d: UE time %d is not a scrub instant", m, info.UEAtNs)
		case lastAt[m] > info.UEAtNs:
			t.Errorf("module %d: events at %d after retirement at %d", m, lastAt[m], info.UEAtNs)
		}
	}

	// The run's log must round-trip through the codec.
	var buf bytes.Buffer
	if err := WriteLog(&buf, log); err != nil {
		t.Fatalf("a run's log failed canonical encoding: %v", err)
	}
	back, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(log.Events) {
		t.Fatalf("round-trip %d events, want %d", len(back.Events), len(log.Events))
	}
	for i := range back.Events {
		if back.Events[i] != log.Events[i] {
			t.Fatalf("round-trip changed event %d", i)
		}
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("Run accepted a zero-module fleet")
	}
	// Out-of-range knobs normalize rather than fail.
	log, err := Run(context.Background(), Config{
		Modules: 3, Seed: 1, Scale: -2, Workers: -5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if log.Epochs != DefaultEpochs {
		t.Errorf("the log spans %d epochs, want %d", log.Epochs, DefaultEpochs)
	}
}

// TestDefaultClassesValidate pins that every geometry class Run draws
// modules from is valid, so Run need not check them per call.
func TestDefaultClassesValidate(t *testing.T) {
	for _, cl := range DefaultClasses() {
		if err := cl.Geom.Validate(); err != nil {
			t.Errorf("class %q: %v", cl.Name, err)
		}
	}
}
