// Package runner executes experiment sweeps in parallel. The paper's
// evaluation (Figures 5-7) is a grid of independent simulation runs —
// (system, arrival rate, seed) points — and each run is a hermetic
// single-threaded world on its own virtual clock. That makes the grid
// embarrassingly parallel: runner fans (point × replica) cells out to a
// bounded worker pool, gives every cell its own deterministically derived
// seed, and folds results back together in canonical order, so the output
// is byte-identical no matter how many workers ran or how the scheduler
// interleaved them.
//
// An experiment is one Sweep call: a list of point keys plus a run closure
// that builds one cell. The hermeticity contract every run closure must
// honor: it builds its whole world — simulator, cluster, corpus, RNGs —
// from its (point, seed) arguments and read-only captured config alone,
// and touches no package-level or shared mutable state. Under that
// contract the sweep is race-free by construction and `go test -race`
// holds it to it.
package runner

import (
	"fmt"
	"runtime"
	"sync"

	"quasaq/internal/simtime"
)

// Mergeable is the replica-aggregation half of the contract: dst.Merge(src)
// folds one replica's result into another. The runner always merges in
// ascending replica order with replica 0 as the receiver, so merge
// implementations may treat the receiver as "the canonical trace" and fold
// only statistics from later replicas.
type Mergeable[R any] interface {
	Merge(R)
}

// Options bound a sweep.
type Options struct {
	// Workers caps concurrent cells; <= 0 means GOMAXPROCS.
	Workers int
	// Replicas is the number of independently seeded repetitions of every
	// point; <= 0 means 1. Replica 0 runs the base seed itself.
	Replicas int
	// Seed is the base seed the per-replica seeds derive from.
	Seed int64
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o Options) replicas() int {
	if o.Replicas <= 0 {
		return 1
	}
	return o.Replicas
}

// Sweep runs every (point × replica) cell of the named experiment on a
// worker pool and returns one merged result per key, in key order. keys
// name the points: each must be non-empty and unique, and is the stable
// identity used in error messages. run builds one hermetic world for point
// index point under seed. Determinism: cell seeds derive from (opts.Seed,
// replica) only, results are folded in replica order with replica 0 as the
// receiver, and output order is key order — so the returned values are
// identical for any worker count. The first error (in canonical cell order,
// not completion order) aborts the sweep's result.
func Sweep[R Mergeable[R]](name string, keys []string, opts Options, run func(point int, seed int64) (R, error)) ([]R, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("runner: %s has no points", name)
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		if k == "" {
			return nil, fmt.Errorf("runner: %s has a point with an empty key", name)
		}
		if seen[k] {
			return nil, fmt.Errorf("runner: %s has duplicate point key %q", name, k)
		}
		seen[k] = true
	}

	reps := opts.replicas()
	type cell struct {
		point   int
		replica int
	}
	cells := make([]cell, 0, len(keys)*reps)
	for pi := range keys {
		for ri := 0; ri < reps; ri++ {
			cells = append(cells, cell{point: pi, replica: ri})
		}
	}

	results := make([][]R, len(keys))
	for i := range results {
		results[i] = make([]R, reps)
	}
	errs := make([]error, len(cells))

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range jobs {
				c := cells[ci]
				seed := simtime.ReplicaSeed(opts.Seed, c.replica)
				r, err := run(c.point, seed)
				if err != nil {
					errs[ci] = fmt.Errorf("runner: %s point %q replica %d (seed %d): %w",
						name, keys[c.point], c.replica, seed, err)
					continue
				}
				results[c.point][c.replica] = r
			}
		}()
	}
	for ci := range cells {
		jobs <- ci
	}
	close(jobs)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := make([]R, len(keys))
	for pi := range keys {
		merged := results[pi][0]
		for ri := 1; ri < reps; ri++ {
			merged.Merge(results[pi][ri])
		}
		out[pi] = merged
	}
	return out, nil
}
