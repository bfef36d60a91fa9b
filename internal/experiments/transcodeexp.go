package experiments

import (
	"fmt"
	"strings"

	"quasaq/internal/core"
	"quasaq/internal/media"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/transcode"
	"quasaq/internal/workload"
)

// The transcode experiment sweeps worker-class mixes of the elastic
// transcoding farm against the inline-transcoding baseline and reads off
// the Pareto trade: dollars spent on the fleet versus the p99 startup delay
// and deadline-miss rate the streams observe. The corpus is stored
// single-copy — only the original quality exists — so nearly every
// admitted delivery carries a transcode stage, and every farm variant has
// to convert GOPs just-in-time ahead of each stream's play point.

// TranscodeVariant is one point of the sweep: a farm configuration, or the
// flat baseline (nil Farm) where every plan transcodes inline on the
// delivery site's reserved CPU.
type TranscodeVariant struct {
	Key  string
	Farm *transcode.FarmConfig // nil = no farm (inline baseline)
}

// TranscodeConfig parameterizes the sweep.
type TranscodeConfig struct {
	Seed     int64
	BaseLoad float64      // queries per second
	Horizon  simtime.Time // arrival window
	Variants []TranscodeVariant
}

// DefaultTranscodeConfig compares the flat baseline, a neutral farm (the
// golden-equivalence control), a fast/expensive fleet, a slow/cheap fleet,
// and a mixed fleet under the autoscaler — ≥2 heterogeneous mixes plus the
// two ends of the cost axis.
func DefaultTranscodeConfig() TranscodeConfig {
	fast := transcode.WorkerClass{
		Name:           "fast",
		Speed:          4,
		Startup:        simtime.Seconds(0.25),
		DollarsPerHour: 2.4,
		MaxWorkers:     6,
	}
	econ := transcode.WorkerClass{
		Name:           "econ",
		Speed:          0.5,
		Startup:        simtime.Seconds(3),
		DollarsPerHour: 0.3,
		MaxWorkers:     6,
	}
	scale := transcode.AutoscaleConfig{Interval: simtime.Seconds(2)}
	one := func(c transcode.WorkerClass) *transcode.FarmConfig {
		c.MinWorkers = 1
		return &transcode.FarmConfig{Classes: []transcode.WorkerClass{c}, Autoscale: scale}
	}
	mixedEcon := econ
	mixedEcon.MinWorkers = 1
	return TranscodeConfig{
		Seed:     29,
		BaseLoad: 2,
		Horizon:  simtime.Seconds(150),
		Variants: []TranscodeVariant{
			{Key: "flat"},
			{Key: "neutral", Farm: &transcode.FarmConfig{}},
			{Key: "fast", Farm: one(fast)},
			{Key: "econ", Farm: one(econ)},
			{Key: "mixed", Farm: &transcode.FarmConfig{
				Classes:   []transcode.WorkerClass{fast, mixedEcon},
				Autoscale: scale,
			}},
		},
	}
}

// TranscodePoint is one variant's outcome.
type TranscodePoint struct {
	Variant string

	Queries    int
	Admitted   int
	Rejected   int
	Completed  int
	QoSOK      int
	Failed     int
	FarmRouted int // completed sessions whose GOPs came from the farm

	// Startup pools farm-routed sessions' startup delays (first transcoded
	// GOP ready after session start), milliseconds.
	Startup *stats.Sample

	Farm transcode.FarmStats

	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int
}

func (p *TranscodePoint) reps() int {
	if p.Replicas < 1 {
		return 1
	}
	return p.Replicas
}

// Merge folds another replica's point in: counters sum, startup samples
// pool, farm counters add.
func (p *TranscodePoint) Merge(o *TranscodePoint) {
	p.Queries += o.Queries
	p.Admitted += o.Admitted
	p.Rejected += o.Rejected
	p.Completed += o.Completed
	p.QoSOK += o.QoSOK
	p.Failed += o.Failed
	p.FarmRouted += o.FarmRouted
	for _, x := range o.Startup.Values() {
		p.Startup.Add(x)
	}
	p.Farm = addFarmStats(p.Farm, o.Farm)
	p.Replicas = p.reps() + o.reps()
}

// addFarmStats sums two farm snapshots; per-class rows pair by name in
// a's order with b's extras appended, so merges stay deterministic.
func addFarmStats(a, b transcode.FarmStats) transcode.FarmStats {
	a.Jobs += b.Jobs
	a.Completed += b.Completed
	a.DeadlineMiss += b.DeadlineMiss
	a.QueueDepth += b.QueueDepth
	if b.MaxQueueDepth > a.MaxQueueDepth {
		a.MaxQueueDepth = b.MaxQueueDepth
	}
	a.ScaleUps += b.ScaleUps
	a.ScaleDowns += b.ScaleDowns
	a.Dollars += b.Dollars
	merged := append([]transcode.ClassStats(nil), a.PerClass...)
	for _, cb := range b.PerClass {
		found := false
		for i := range merged {
			if merged[i].Name == cb.Name {
				merged[i].Workers += cb.Workers
				merged[i].BusySeconds += cb.BusySeconds
				found = true
				break
			}
		}
		if !found {
			merged = append(merged, cb)
		}
	}
	a.PerClass = merged
	return a
}

// variantByKey finds a sweep variant (nil if absent).
func (c TranscodeConfig) variantByKey(key string) *TranscodeVariant {
	for i := range c.Variants {
		if c.Variants[i].Key == key {
			return &c.Variants[i]
		}
	}
	return nil
}

// RunTranscode sweeps the variants as independent hermetic points.
func RunTranscode(cfg TranscodeConfig, opts runner.Options) ([]*TranscodePoint, error) {
	keys := make([]string, len(cfg.Variants))
	for i, v := range cfg.Variants {
		keys[i] = v.Key
	}
	opts.Seed = cfg.Seed
	return runner.Sweep("transcode", keys, opts, func(i int, seed int64) (*TranscodePoint, error) {
		return runTranscodePoint(cfg, keys[i], seed)
	})
}

// runTranscodePoint runs one variant in a hermetic world and drains it
// completely before counters are read.
func runTranscodePoint(cfg TranscodeConfig, key string, seed int64) (*TranscodePoint, error) {
	v := cfg.variantByKey(key)
	if v == nil {
		return nil, fmt.Errorf("experiments: unknown transcode variant %q", key)
	}
	if cfg.BaseLoad <= 0 {
		return nil, fmt.Errorf("experiments: non-positive base load %v", cfg.BaseLoad)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("experiments: non-positive horizon %v", cfg.Horizon)
	}

	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(seed))
	// Single-copy storage: only the original quality exists, so delivering
	// any lower tier forces an online transcode — the farm's workload.
	if _, err := cluster.LoadCorpus(corpus, replication.SingleCopyPolicy()); err != nil {
		return nil, err
	}

	mgr := core.NewManager(cluster, core.LRB{})
	if v.Farm != nil {
		if _, err := mgr.EnableFarm(*v.Farm); err != nil {
			return nil, err
		}
	}

	out := &TranscodePoint{Variant: key, Startup: &stats.Sample{}}
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
	})
	gen.Drive(sim, cfg.Horizon, func(r workload.Request) {
		out.Queries++
		mgr.ServiceAsync(r.Site, r.Video, r.Req, core.ServiceOptions{
			OnDone: func(d *core.Delivery) {
				out.Completed++
				if d.Session.QoSOK() {
					out.QoSOK++
				}
				if d.Session.FarmRouted() {
					out.FarmRouted++
					out.Startup.Add(d.Session.StartupDelayMillis())
				}
			},
			OnFailed: func(_ *core.Delivery, _ error) { out.Failed++ },
		}, func(_ *core.Delivery, err error) {
			if err != nil {
				out.Rejected++
				return
			}
			out.Admitted++
		})
	})
	// Drain completely: arrivals, farm jobs, autoscaler ticks, and streams
	// are all finite, so the event queue empties.
	sim.Run()

	if got := out.Admitted + out.Rejected; got != out.Queries {
		return nil, fmt.Errorf("experiments: %d of %d transcode admissions never settled", out.Queries-got, out.Queries)
	}
	if got := out.Completed + out.Failed; got != out.Admitted {
		return nil, fmt.Errorf("experiments: %d of %d transcode sessions never concluded", out.Admitted-got, out.Admitted)
	}
	if f := mgr.Farm(); f != nil {
		out.Farm = f.Stats()
		if out.Farm.QueueDepth != 0 {
			return nil, fmt.Errorf("experiments: %d transcode jobs still queued after drain", out.Farm.QueueDepth)
		}
	}
	return out, nil
}

// TranscodeTable renders the sweep as tidy CSV: one row per variant.
// Counter columns of replica-merged points emit cross-replica means; the
// startup quantiles read the pooled cross-replica sample.
func TranscodeTable(points []*TranscodePoint) Table {
	t := Table{Header: []string{
		"variant", "queries", "admitted", "rejected", "completed", "qos_ok", "failed",
		"farm_routed", "jobs", "misses", "miss_rate", "max_queue",
		"scale_ups", "scale_downs", "dollars",
		"startup_p50_ms", "startup_p95_ms", "startup_p99_ms",
	}}
	for _, p := range points {
		reps := p.reps()
		f := p.Farm
		t.Rows = append(t.Rows, []string{
			p.Variant,
			fmtCount(p.Queries, reps),
			fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps),
			fmtCount(p.Completed, reps),
			fmtCount(p.QoSOK, reps),
			fmtCount(p.Failed, reps),
			fmtCount(p.FarmRouted, reps),
			fmtCount(int(f.Jobs), reps),
			fmtCount(int(f.DeadlineMiss), reps),
			fmt.Sprintf("%.4f", f.MissRate()),
			fmt.Sprintf("%d", f.MaxQueueDepth),
			fmtCount(int(f.ScaleUps), reps),
			fmtCount(int(f.ScaleDowns), reps),
			fmt.Sprintf("%.4f", f.Dollars/float64(reps)),
			fmt.Sprintf("%.3f", p.Startup.Percentile(50)),
			fmt.Sprintf("%.3f", p.Startup.Percentile(95)),
			fmt.Sprintf("%.3f", p.Startup.Percentile(99)),
		})
	}
	return t
}

// FormatTranscode renders the sweep the way an operator reads a Pareto
// frontier: what each fleet costs, and what startup delay and miss rate it
// buys.
func FormatTranscode(cfg TranscodeConfig, points []*TranscodePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Transcode farm: %.0f s at %.1f qps, single-copy corpus (every lower tier transcodes)",
		simtime.ToSeconds(cfg.Horizon), cfg.BaseLoad)
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-9s %8s %9s %9s %7s %7s %7s %7s %9s %10s %10s %10s\n",
		"variant", "queries", "admitted", "rejected", "qos-ok", "routed", "jobs", "misses",
		"dollars", "p50(ms)", "p99(ms)", "miss-rate")
	for _, p := range points {
		reps := p.reps()
		f := p.Farm
		fmt.Fprintf(&b, "%-9s %8s %9s %9s %7s %7s %7s %7s %9.4f %10.3f %10.3f %10.4f\n",
			p.Variant, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps), fmtCount(p.QoSOK, reps), fmtCount(p.FarmRouted, reps),
			fmtCount(int(f.Jobs), reps), fmtCount(int(f.DeadlineMiss), reps),
			f.Dollars/float64(reps), p.Startup.Percentile(50), p.Startup.Percentile(99), f.MissRate())
	}
	b.WriteString("\nPareto (dollars vs p99 startup):")
	for _, p := range points {
		fmt.Fprintf(&b, "  %s ($%.4f, %.1f ms)", p.Variant,
			p.Farm.Dollars/float64(p.reps()), p.Startup.Percentile(99))
	}
	b.WriteString("\n")
	return b.String()
}
