// Package parallel provides the deterministic fan-out primitives used by
// every concurrent layer of this repository: suite simulation, k-fold
// cross validation, bootstrap resampling, bagged-ensemble training and
// split-attribute scoring.
//
// The package enforces one contract: parallel execution must be
// *observationally identical* to serial execution. Map returns results in
// input order, errors are reported for the lowest failing index, and the
// seed-derivation helpers let callers pre-compute independent random
// streams per work item so no output ever depends on goroutine
// scheduling. Callers can therefore treat Jobs purely as a throughput
// knob: Jobs=1 runs the exact serial path, Jobs=N produces byte-identical
// results faster.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Config controls the degree of parallelism of one fan-out.
type Config struct {
	// Jobs is the maximum number of concurrent workers. Zero (or any
	// non-positive value) means runtime.GOMAXPROCS(0); 1 selects the exact
	// serial code path.
	Jobs int
}

// Serial returns a Config that forces the serial code path.
func Serial() Config { return Config{Jobs: 1} }

// Workers resolves Jobs to a concrete worker count (>= 1).
func (c Config) Workers() int {
	if c.Jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Jobs
}

// Map applies fn to every item and returns the results in input order.
// fn receives the item's index and value.
//
// With one worker (or fewer than two items) Map degrades to a plain loop
// that stops at the first error. With more workers the items are consumed
// from a shared counter by a fixed-size pool; all items are attempted and
// the error for the lowest failing index is returned, so the returned
// (results, error) pair is independent of scheduling either way. fn must
// be safe to call concurrently when Workers() > 1.
func Map[T, R any](cfg Config, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	out := make([]R, n)
	workers := cfg.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, item := range items {
			r, err := fn(i, item)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i, items[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// golden is the 64-bit golden-ratio increment of the SplitMix64 generator
// (Steele, Lea & Flood, OOPSLA 2014).
const golden = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output finalizer: a fixed bijective scrambling
// of the 64-bit state.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// DeriveSeed derives the seed of independent random stream index from a
// base seed, SplitMix64-style. The derivation is a pure function of
// (base, index), so work item i gets the same stream no matter how many
// sibling items exist or in which order they run — the property the
// determinism contract rests on.
func DeriveSeed(base int64, index int) int64 {
	return int64(mix64(uint64(base) + (uint64(index)+1)*golden))
}
