package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

// Serial vs parallel sweep wall-clock: the same (system × replica) grid run
// with one worker and with GOMAXPROCS workers (EXPERIMENTS.md "Parallel
// sweeps" records a run); on an N-core machine the parallel run should
// approach N× until the grid runs out of cells.

func benchSweep(b *testing.B, workers int) {
	cfg := ThroughputConfig{Seed: 11, Horizon: simtime.Seconds(200), Bucket: simtime.Seconds(20)}
	sc := NewFig6Scenario(cfg)
	b.ReportMetric(float64(workers), "workers")
	for i := 0; i < b.N; i++ {
		series, err := RunSweep(sc, runner.Options{Workers: workers, Replicas: 4})
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 3 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

func BenchmarkRunnerSweepSerial(b *testing.B) { benchSweep(b, 1) }

func BenchmarkRunnerSweepParallel(b *testing.B) { benchSweep(b, runtime.GOMAXPROCS(0)) }

// Cell-grain reference: one hermetic throughput world, the unit the pool
// schedules. sweep time / (cells × cell time) shows pool overhead.
func BenchmarkRunnerCell(b *testing.B) {
	cfg := ThroughputConfig{Seed: 11, Horizon: simtime.Seconds(200), Bucket: simtime.Seconds(20)}
	for i := 0; i < b.N; i++ {
		if _, err := RunThroughput(SysQuaSAQ, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Example documents the parallel entry point.
func ExampleRunSweep() {
	cfg := ThroughputConfig{Seed: 11, Horizon: simtime.Seconds(60), Bucket: simtime.Seconds(20)}
	series, err := RunSweep(NewFig7Scenario(cfg), runner.Options{Workers: 2, Replicas: 2})
	if err != nil {
		panic(err)
	}
	for _, s := range series {
		fmt.Printf("%s replicas=%d\n", s.DisplayName(), s.Reps())
	}
	// Output:
	// QuaSAQ (Random) replicas=2
	// VDBMS+QuaSAQ replicas=2
}
