// Package parallel is the deterministic fan-out/fan-in layer under every
// embarrassingly parallel sweep in this repository (experiment mixes,
// characterization pattern sweeps, the memconsim -all driver).
//
// The contract is strict determinism: a sweep's result must be
// byte-identical for ANY worker count, including 1. The package enforces
// the two halves of that contract mechanically:
//
//   - ordered fan-in: Map writes each unit's result into a slice indexed
//     by unit, so the caller always observes results in unit order no
//     matter which worker computed them or when;
//   - derived seeds: Seed(base, unit) gives every work unit its own RNG
//     stream as a pure function of (base seed, unit index), never of
//     worker identity or scheduling.
//
// Workers never share mutable state through the pool; a unit may only
// touch its own inputs and its own result slot. Panics inside a unit are
// captured and surfaced as *PanicError values rather than tearing down
// the process, and a cancelled context stops the sweep between units.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values below 1 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Seed derives the RNG seed of one work unit from the sweep's base seed
// using the splitmix64 finalizer. The result depends only on
// (base, unit), so per-unit random streams are stable across worker
// counts, scheduling orders, and process runs, and adjacent unit indices
// land in statistically unrelated streams (unlike base+unit, which
// hands consecutive units overlapping rand.Source state).
func Seed(base int64, unit int) int64 {
	z := uint64(base) + (uint64(unit)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// PanicError is a panic captured from a work unit.
type PanicError struct {
	// Unit is the work-unit index whose function panicked.
	Unit int
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

// Error renders the panic with its unit index.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: unit %d panicked: %v\n%s", e.Unit, e.Value, e.Stack)
}

// ForEach runs fn(i) for every i in [0, n) on up to `workers`
// goroutines (resolved via Workers). It always runs every unit — even
// after a unit fails — so the error it returns is the error of the
// LOWEST failing unit index regardless of worker count or scheduling,
// matching what a serial loop that collected all errors would report.
// The exception is context cancellation: once ctx is done, remaining
// units are skipped and the context error is reported for them.
//
// A panicking unit does not crash the process; its panic is returned as
// a *PanicError.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				break
			}
			errs[i] = call(i, fn)
		}
		return firstErr(errs)
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = call(i, fn)
			}
		}()
	}
	wg.Wait()
	return firstErr(errs)
}

// Map runs fn over every unit in [0, n) with ForEach's scheduling and
// error semantics and returns the results in unit order. On error the
// result slice is nil.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// call invokes fn(i), converting a panic into a *PanicError.
func call(i int, fn func(int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Unit: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// firstErr returns the error of the lowest failing unit.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
