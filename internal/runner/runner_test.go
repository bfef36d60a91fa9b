package runner

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"quasaq/internal/simtime"
)

// sumResult is a minimal mergeable result: the seeds it has absorbed, in
// merge order, plus a running total drawn from the seeded RNG.
type sumResult struct {
	Seeds []int64
	Total float64
}

func (s *sumResult) Merge(o *sumResult) {
	s.Seeds = append(s.Seeds, o.Seeds...)
	s.Total += o.Total
}

// grid is a deterministic pseudo-experiment over the given keys.
type grid struct {
	keys     []string
	baseSeed int64
	fail     map[string]int // point key -> replica that errors
	onRun    func()         // optional concurrency probe
}

func (g *grid) run(point int, seed int64) (*sumResult, error) {
	if g.onRun != nil {
		g.onRun()
	}
	key := g.keys[point]
	if r, ok := g.fail[key]; ok && seed == simtime.ReplicaSeed(g.baseSeed, r) {
		return nil, fmt.Errorf("cell told to fail")
	}
	rng := simtime.NewRand(seed ^ int64(len(key)))
	return &sumResult{Seeds: []int64{seed}, Total: rng.Float64()}, nil
}

func (g *grid) sweep(opts Options) ([]*sumResult, error) {
	return Sweep("grid", g.keys, opts, g.run)
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	g := &grid{keys: []string{"a", "b", "c"}}
	var runs []*sumResult
	for _, workers := range []int{1, 4, 8} {
		res, err := g.sweep(Options{Workers: workers, Replicas: 5, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if runs == nil {
			runs = res
			continue
		}
		if !reflect.DeepEqual(res, runs) {
			t.Fatalf("workers=%d produced a different sweep result", workers)
		}
	}
	if len(runs) != 3 {
		t.Fatalf("points = %d", len(runs))
	}
	for pi, r := range runs {
		if len(r.Seeds) != 5 {
			t.Fatalf("point %s merged %d replica results", g.keys[pi], len(r.Seeds))
		}
		// Replica results must fold in ascending replica order with
		// replica 0 (the base seed) as the receiver.
		for ri, s := range r.Seeds {
			if want := simtime.ReplicaSeed(11, ri); s != want {
				t.Fatalf("point %s merge position %d has seed %d, want %d", g.keys[pi], ri, s, want)
			}
		}
	}
	// All points see the identical per-replica seeds (paired comparisons).
	if !reflect.DeepEqual(runs[0].Seeds, runs[1].Seeds) {
		t.Fatal("points saw different replica seeds")
	}
}

func TestSweepRepeatedRunsIdentical(t *testing.T) {
	g := &grid{keys: []string{"x", "y"}}
	a, err := g.sweep(Options{Workers: 8, Replicas: 3, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.sweep(Options{Workers: 8, Replicas: 3, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two sweeps with the same options differ")
	}
}

func TestSweepErrorNamesCell(t *testing.T) {
	g := &grid{keys: []string{"ok", "bad"}, baseSeed: 11, fail: map[string]int{"bad": 2}}
	_, err := g.sweep(Options{Workers: 4, Replicas: 4, Seed: 11})
	if err == nil {
		t.Fatal("expected error")
	}
	for _, want := range []string{`point "bad"`, "replica 2", "cell told to fail"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestSweepRejectsBadPointSets(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []string
	}{
		{"empty", nil},
		{"dup keys", []string{"a", "a"}},
		{"empty key", []string{""}},
	} {
		g := &grid{keys: tc.keys}
		if _, err := g.sweep(Options{}); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// The pool must actually overlap cells: with W workers and W cells, a
// barrier that releases only when all W cells have entered run can only be
// passed if the runner executes them concurrently.
func TestSweepRunsCellsConcurrently(t *testing.T) {
	const workers = 4
	var barrier sync.WaitGroup
	barrier.Add(workers)
	g := &grid{
		keys: []string{"a", "b", "c", "d"},
		onRun: func() {
			barrier.Done()
			barrier.Wait()
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.sweep(Options{Workers: workers, Replicas: 1, Seed: 1})
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSweepDefaultOptions(t *testing.T) {
	g := &grid{keys: []string{"only"}}
	res, err := g.sweep(Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Seeds) != 1 {
		t.Fatalf("defaults: %+v", res)
	}
	if res[0].Seeds[0] != 5 {
		t.Fatal("single replica must run the base seed")
	}
}
