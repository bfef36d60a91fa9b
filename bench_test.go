package quasaq

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus ablations for the design choices called out in
// DESIGN.md. Each benchmark runs the corresponding experiment end to end on
// the simulated testbed and reports the figure's headline numbers as
// benchmark metrics, so `go test -bench=. -benchmem` regenerates the whole
// evaluation. qsqbench prints the full series for plotting.
//
// Benchmarks use the paper's horizons where practical (Figure 6: 1000 s;
// Figure 7: 7000 s of virtual time); wall-clock cost per iteration is
// seconds, so each typically runs with b.N == 1.

import (
	"runtime"
	"testing"

	"quasaq/internal/core"
	"quasaq/internal/experiments"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
)

// BenchmarkFig5InterFrameDelay regenerates Figure 5: four panels of
// server-side inter-frame delay traces (VDBMS vs QuaSAQ x low vs high
// contention), 1000 frames each.
func BenchmarkFig5InterFrameDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(experiments.DefaultFig5Config(), runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Panels[2].InterFrame.StdDev(), "vdbms-high-sd-ms")
		b.ReportMetric(res.Panels[3].InterFrame.StdDev(), "quasaq-high-sd-ms")
		b.ReportMetric(res.Panels[3].InterFrame.Mean(), "quasaq-high-mean-ms")
	}
}

// BenchmarkTable2DelayStats regenerates Table 2: delay statistics of the
// Figure 5 runs (theoretical inter-frame delay 41.72 ms).
func BenchmarkTable2DelayStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(experiments.DefaultFig5Config(), runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.Table2(res)
		b.ReportMetric(rows[0].FrameMean, "vdbms-low-mean-ms")
		b.ReportMetric(rows[1].FrameMean, "vdbms-high-mean-ms")
		b.ReportMetric(rows[1].GOPSD, "vdbms-high-gop-sd-ms")
		b.ReportMetric(rows[3].GOPSD, "quasaq-high-gop-sd-ms")
	}
}

// BenchmarkFig6Throughput regenerates Figure 6: outstanding sessions and
// succeeded jobs per minute for VDBMS, VDBMS+QoS API and QuaSAQ over
// 1000 s of Poisson arrivals.
func BenchmarkFig6Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunSweep(experiments.NewFig6Scenario(experiments.DefaultFig6Config()), runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		vdbms, qosapi, quasaq := series[0], series[1], series[2]
		b.ReportMetric(vdbms.SteadyOutstanding(), "vdbms-steady-sessions")
		b.ReportMetric(qosapi.SteadyOutstanding(), "qosapi-steady-sessions")
		b.ReportMetric(quasaq.SteadyOutstanding(), "quasaq-steady-sessions")
		b.ReportMetric(quasaq.SteadyOutstanding()/qosapi.SteadyOutstanding(), "quasaq/qosapi-ratio")
		b.ReportMetric(float64(quasaq.QoSOK), "quasaq-qos-ok-jobs")
		b.ReportMetric(float64(vdbms.QoSOK), "vdbms-qos-ok-jobs")
	}
}

// BenchmarkFig7CostModels regenerates Figure 7: QuaSAQ under the LRB model
// vs the single-shot randomized baseline over 7000 s (the paper reports LRB
// sustaining 27-89% more sessions).
func BenchmarkFig7CostModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunSweep(experiments.NewFig7Scenario(experiments.DefaultFig7Config()), runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		random, lrb := series[0], series[1]
		b.ReportMetric(lrb.SteadyOutstanding(), "lrb-steady-sessions")
		b.ReportMetric(random.SteadyOutstanding(), "random-steady-sessions")
		b.ReportMetric(100*(lrb.SteadyOutstanding()/random.SteadyOutstanding()-1), "lrb-advantage-pct")
		b.ReportMetric(float64(lrb.Rejected), "lrb-rejects")
		b.ReportMetric(float64(random.Rejected), "random-rejects")
	}
}

// BenchmarkOverhead regenerates the §5.2 overhead analysis: per-query
// planning cost and the soft-real-time scheduler's maintenance share
// (paper: 0.16 ms per 10 ms, 1.6%).
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunOverhead(3, 300, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PlanMicrosPerQry, "planning-us/query")
		b.ReportMetric(res.PlansPerQuery, "plans/query")
		b.ReportMetric(100*res.SchedulerOverhead, "sched-overhead-pct")
	}
}

// BenchmarkAblationCostModels compares the LRB model against the min-sum
// and contention-blind static models on the Figure 6 workload.
func BenchmarkAblationCostModels(b *testing.B) {
	cfg := experiments.DefaultFig6Config()
	cfg.Horizon = simtime.Seconds(500)
	for i := 0; i < b.N; i++ {
		lrb, err := experiments.RunThroughput(experiments.SysQuaSAQ, cfg)
		if err != nil {
			b.Fatal(err)
		}
		minsum, err := experiments.RunThroughput(experiments.SysQuaSAQMinSum, cfg)
		if err != nil {
			b.Fatal(err)
		}
		static, err := experiments.RunThroughput(experiments.SysQuaSAQStatic, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lrb.SteadyOutstanding(), "lrb-steady")
		b.ReportMetric(minsum.SteadyOutstanding(), "minsum-steady")
		b.ReportMetric(static.SteadyOutstanding(), "static-steady")
	}
}

// BenchmarkAblationSingleCopy isolates the contribution of QoS-specific
// replication: the same QuaSAQ with only original copies (no quality
// ladder) must sustain fewer sessions.
func BenchmarkAblationSingleCopy(b *testing.B) {
	cfg := experiments.DefaultFig6Config()
	cfg.Horizon = simtime.Seconds(500)
	for i := 0; i < b.N; i++ {
		full, err := experiments.RunThroughput(experiments.SysQuaSAQ, cfg)
		if err != nil {
			b.Fatal(err)
		}
		scfg := cfg
		scfg.SingleCopy = true
		single, err := experiments.RunThroughput(experiments.SysQuaSAQ, scfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(full.SteadyOutstanding(), "full-ladder-steady")
		b.ReportMetric(single.SteadyOutstanding(), "single-copy-steady")
	}
}

// BenchmarkDynamicReplication measures the §2-item-1 extension: QuaSAQ
// starting from single-copy storage with the online replicator converging
// toward offline full replication's throughput.
func BenchmarkDynamicReplication(b *testing.B) {
	cfg := experiments.DefaultFig6Config()
	cfg.Horizon = simtime.Seconds(600)
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunDynamicReplication(cfg, runner.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.StaticSingle.SteadyOutstanding(), "single-static-steady")
		b.ReportMetric(r.DynamicSingle.SteadyOutstanding(), "single-dynamic-steady")
		b.ReportMetric(r.FullReplica.SteadyOutstanding(), "full-ladder-steady")
		b.ReportMetric(float64(r.ReplicasCreated), "replicas-created")
	}
}

// benchCluster builds a loaded testbed for micro-benchmarks.
func benchCluster(b *testing.B) *core.Cluster {
	b.Helper()
	sim := simtime.NewSimulator()
	c := core.TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.DefaultPolicy()); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkMetadataLookup measures replica resolution through the
// per-site metadata cache.
func BenchmarkMetadataLookup(b *testing.B) {
	b.Run("cache-on", func(b *testing.B) {
		c := benchCluster(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Dir.Lookup("srv-a", media.VideoID(1+i%15))
		}
		remote, _ := c.Dir.CacheStats()
		b.ReportMetric(float64(remote)/float64(b.N), "remote-lookups/op")
	})
}

// BenchmarkSimulatedStreaming measures the event engine's throughput:
// virtual streaming seconds simulated per wall second for a loaded server.
func BenchmarkSimulatedStreaming(b *testing.B) {
	b.ReportAllocs()
	var events, mallocs uint64
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		sim := simtime.NewSimulator()
		c := core.TestbedCluster(sim)
		if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.DefaultPolicy()); err != nil {
			b.Fatal(err)
		}
		mgr := core.NewManager(c, core.LRB{})
		req := qos.Requirement{MinResolution: qos.ResVCD, MaxResolution: qos.ResCIF}
		for j := 0; j < 12; j++ {
			if _, err := mgr.Service("srv-a", media.VideoID(1+j%15), req, core.ServiceOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		// allocs/event covers the streaming phase alone: world build and
		// admission above are outside it.
		runtime.ReadMemStats(&before)
		sim.RunUntil(simtime.Seconds(60))
		runtime.ReadMemStats(&after)
		events += sim.Executed()
		mallocs += after.Mallocs - before.Mallocs
	}
	b.ReportMetric(float64(events)/float64(b.N), "events")
	b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
}
