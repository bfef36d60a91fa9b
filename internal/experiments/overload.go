package experiments

import (
	"errors"
	"fmt"
	"strings"

	"quasaq/internal/broker"
	"quasaq/internal/core"
	"quasaq/internal/faults"
	"quasaq/internal/guardian"
	"quasaq/internal/media"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/workload"
)

// The overload experiment ramps the arrival rate well past testbed capacity
// while cross traffic congests two delivery links and a third site briefly
// partitions, then lets the load recede. It runs twice in hermetic worlds:
// a "baseline" with every protection off, and a "guarded" variant with the
// runtime QoS guardian, per-site circuit breakers, the global retry budget,
// and the deadline-aware admission queue all on. The comparison answers the
// two robustness questions: how many would-be QoS casualties the
// degradation ladder rescues short of abandonment, and how much admission
// tail latency the breaker shaves when a site goes dark.

// OverloadConfig parameterizes one baseline/guarded pair.
type OverloadConfig struct {
	Seed     int64
	BaseLoad float64          // queries per second at phase rate 1
	Phases   []workload.Phase // piecewise ramp; the horizon is their sum
	Schedule faults.Schedule  // congestion + partition plan
	Ctrl     broker.Config    // shared control-plane parameters

	// Protections, applied only to the guarded variant.
	Breaker     broker.BreakerConfig
	RetryBudget broker.RetryBudgetConfig
	Queue       core.AdmissionQueueConfig
	Guardian    guardian.Config
}

// DefaultOverloadConfig ramps 1→6→15→6→1 qps over 280 s; srv-a and srv-b
// lose half their effective link capacity to cross traffic through the
// peak, and srv-c partitions for 30 s right as the ramp crests.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		Seed:     23,
		BaseLoad: 1,
		Phases: []workload.Phase{
			{Rate: 1, Duration: simtime.Seconds(40)},
			{Rate: 6, Duration: simtime.Seconds(60)},
			{Rate: 15, Duration: simtime.Seconds(80)},
			{Rate: 6, Duration: simtime.Seconds(60)},
			{Rate: 1, Duration: simtime.Seconds(40)},
		},
		Schedule: faults.Schedule{
			{At: simtime.Seconds(60), Kind: faults.LinkCongest, Target: "srv-a", Factor: 0.45},
			{At: simtime.Seconds(90), Kind: faults.LinkCongest, Target: "srv-b", Factor: 0.65},
			{At: simtime.Seconds(100), Kind: faults.LinkPartition, Target: "srv-c"},
			{At: simtime.Seconds(130), Kind: faults.LinkRestore, Target: "srv-c"},
			{At: simtime.Seconds(200), Kind: faults.LinkRestore, Target: "srv-a"},
			{At: simtime.Seconds(210), Kind: faults.LinkRestore, Target: "srv-b"},
		},
		Ctrl:        broker.TestbedConfig(),
		Breaker:     broker.BreakerConfig{Threshold: 3},
		RetryBudget: broker.RetryBudgetConfig{Burst: 10},
		Queue: core.AdmissionQueueConfig{
			MaxInFlight: 12,
			MaxQueue:    64,
			Deadline:    simtime.Seconds(2),
		},
		Guardian: guardian.Config{}, // defaults
	}
}

// Horizon is the arrival window: the sum of the phase durations.
func (c OverloadConfig) Horizon() simtime.Time {
	var h simtime.Time
	for _, p := range c.Phases {
		h += p.Duration
	}
	return h
}

// OverloadPoint is one variant's outcome.
type OverloadPoint struct {
	Variant string

	Queries      int
	Admitted     int
	Rejected     int
	Expired      int // rejections carrying ErrAdmissionDeadline
	CtrlTimeouts int // rejections carrying ErrControlTimeout
	Completed    int
	QoSOK        int
	Failed       int // admitted but lost (faults or guardian abandonment)
	QoSAbandoned int // failures carrying ErrQoSAbandoned

	Latency *stats.Sample // admission decision latency, ms from arrival

	Guardian           guardian.Stats
	BreakerOpens       uint64
	BreakerFastFails   uint64
	RetriesSuppressed  uint64
	BreakerOpenSeconds float64

	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int
}

func (p *OverloadPoint) reps() int {
	if p.Replicas < 1 {
		return 1
	}
	return p.Replicas
}

// Merge folds another replica's point in: counters sum, latency samples
// pool, guardian counters add.
func (p *OverloadPoint) Merge(o *OverloadPoint) {
	p.Queries += o.Queries
	p.Admitted += o.Admitted
	p.Rejected += o.Rejected
	p.Expired += o.Expired
	p.CtrlTimeouts += o.CtrlTimeouts
	p.Completed += o.Completed
	p.QoSOK += o.QoSOK
	p.Failed += o.Failed
	p.QoSAbandoned += o.QoSAbandoned
	for _, x := range o.Latency.Values() {
		p.Latency.Add(x)
	}
	p.Guardian = addGuardianStats(p.Guardian, o.Guardian)
	p.BreakerOpens += o.BreakerOpens
	p.BreakerFastFails += o.BreakerFastFails
	p.RetriesSuppressed += o.RetriesSuppressed
	p.BreakerOpenSeconds += o.BreakerOpenSeconds
	p.Replicas = p.reps() + o.reps()
}

// addGuardianStats sums two guardian counter snapshots field by field.
func addGuardianStats(a, b guardian.Stats) guardian.Stats {
	a.Watched += b.Watched
	a.Windows += b.Windows
	a.Breaches += b.Breaches
	a.Violations += b.Violations
	a.ViolatedSessions += b.ViolatedSessions
	a.StepDowns += b.StepDowns
	a.Renegotiates += b.Renegotiates
	a.Migrations += b.Migrations
	a.Abandons += b.Abandons
	a.ReplanFailures += b.ReplanFailures
	a.SavedStepDown += b.SavedStepDown
	a.SavedRenegotiate += b.SavedRenegotiate
	a.SavedMigrate += b.SavedMigrate
	a.LossViolations += b.LossViolations
	a.DelayViolations += b.DelayViolations
	a.JitterViolations += b.JitterViolations
	a.ThroughputViolations += b.ThroughputViolations
	a.QoERecords += b.QoERecords
	return a
}

// SavedRate is violated sessions rescued by rungs 1–3 over all violated
// sessions (0 when nothing violated).
func (p *OverloadPoint) SavedRate() float64 {
	if p.Guardian.ViolatedSessions == 0 {
		return 0
	}
	return float64(p.Guardian.Saved()) / float64(p.Guardian.ViolatedSessions)
}

// AbandonRate is guardian-shed sessions over admitted sessions.
func (p *OverloadPoint) AbandonRate() float64 {
	if p.Admitted == 0 {
		return 0
	}
	return float64(p.QoSAbandoned) / float64(p.Admitted)
}

// RunOverload runs the baseline and guarded variants as two points.
func RunOverload(cfg OverloadConfig, opts runner.Options) ([]*OverloadPoint, error) {
	keys := []string{"baseline", "guarded"}
	opts.Seed = cfg.Seed
	return runner.Sweep("overload", keys, opts, func(i int, seed int64) (*OverloadPoint, error) {
		return runOverloadPoint(cfg, keys[i], seed)
	})
}

// runOverloadPoint runs one variant ("baseline" or "guarded") in a hermetic
// world and drains it completely: every admission settles and every stream
// finishes before counters are read.
func runOverloadPoint(cfg OverloadConfig, variant string, seed int64) (*OverloadPoint, error) {
	guarded := variant == "guarded"
	if !guarded && variant != "baseline" {
		return nil, fmt.Errorf("experiments: unknown overload variant %q", variant)
	}
	if cfg.BaseLoad <= 0 {
		return nil, fmt.Errorf("experiments: non-positive base load %v", cfg.BaseLoad)
	}
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("experiments: overload needs a phase ramp")
	}
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}

	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(seed))
	if _, err := cluster.LoadCorpus(corpus, replication.DefaultPolicy()); err != nil {
		return nil, err
	}
	ctrl := cfg.Ctrl
	ctrl.Seed = seed
	if guarded {
		ctrl.Breaker = cfg.Breaker
		ctrl.RetryBudget = cfg.RetryBudget
	}
	if err := cluster.ConfigureControl(ctrl); err != nil {
		return nil, err
	}

	mgr := core.NewManager(cluster, core.LRB{})
	pol := core.DefaultFailoverPolicy()
	pol.BestEffortFallback = true
	mgr.EnableFailover(pol)

	var guard *guardian.Guardian
	if guarded {
		if err := mgr.ConfigureAdmissionQueue(cfg.Queue); err != nil {
			return nil, err
		}
		g, err := guardian.New(mgr, cfg.Guardian)
		if err != nil {
			return nil, err
		}
		guard = g
	}

	in := faults.NewInjector(sim)
	for _, site := range cluster.Sites() {
		in.RegisterNode(cluster.Nodes[site])
	}
	if err := in.Apply(cfg.Schedule); err != nil {
		return nil, err
	}

	out := &OverloadPoint{Variant: variant, Latency: &stats.Sample{}}
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
		Phases:           cfg.Phases,
	})
	gen.Drive(sim, cfg.Horizon(), func(r workload.Request) {
		out.Queries++
		arrived := sim.Now()
		mgr.ServiceAsync(r.Site, r.Video, r.Req, core.ServiceOptions{
			OnDone: func(d *core.Delivery) {
				out.Completed++
				if d.Session.QoSOK() {
					out.QoSOK++
				}
			},
			OnFailed: func(_ *core.Delivery, err error) {
				out.Failed++
				if errors.Is(err, guardian.ErrQoSAbandoned) {
					out.QoSAbandoned++
				}
			},
		}, func(_ *core.Delivery, err error) {
			out.Latency.Add(1000 * simtime.ToSeconds(sim.Now()-arrived))
			if err != nil {
				out.Rejected++
				if errors.Is(err, core.ErrAdmissionDeadline) {
					out.Expired++
				}
				if errors.Is(err, core.ErrControlTimeout) {
					out.CtrlTimeouts++
				}
				return
			}
			out.Admitted++
		})
	})
	// Drain completely: arrivals, faults, recoveries, guardian windows, and
	// streams are all finite, so the event queue empties.
	sim.Run()

	if got := out.Admitted + out.Rejected; got != out.Queries {
		return nil, fmt.Errorf("experiments: %d of %d overload admissions never settled", out.Queries-got, out.Queries)
	}
	if got := out.Completed + out.Failed; got != out.Admitted {
		return nil, fmt.Errorf("experiments: %d of %d overload sessions never concluded", out.Admitted-got, out.Admitted)
	}
	if guard != nil {
		out.Guardian = guard.Stats()
	}
	reg := mgr.Registry()
	out.BreakerOpens = reg.Counter("quasaq_ctrl_breaker_opens_total").Value()
	out.BreakerFastFails = reg.Counter("quasaq_ctrl_breaker_fastfails_total").Value()
	out.RetriesSuppressed = reg.Counter("quasaq_ctrl_retries_suppressed_total").Value()
	out.BreakerOpenSeconds = simtime.ToSeconds(cluster.Ctrl.BreakerOpenTime())
	return out, nil
}

// OverloadTable renders the pair as tidy CSV: one row per variant.
// Counter columns of replica-merged points emit cross-replica means; the
// latency quantiles read the pooled cross-replica sample.
func OverloadTable(points []*OverloadPoint) Table {
	t := Table{Header: []string{
		"variant", "queries", "admitted", "rejected", "expired", "ctrl_timeouts",
		"completed", "qos_ok", "failed", "qos_abandoned",
		"violations", "violated_sessions", "stepdowns", "renegotiates", "migrations", "abandons", "saved",
		"breaker_opens", "breaker_fastfails", "retries_suppressed", "breaker_open_s",
		"adm_mean_ms", "adm_p50_ms", "adm_p95_ms", "adm_p99_ms", "adm_max_ms",
	}}
	for _, p := range points {
		reps := p.reps()
		sum := p.Latency.Summary()
		g := p.Guardian
		t.Rows = append(t.Rows, []string{
			p.Variant,
			fmtCount(p.Queries, reps),
			fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps),
			fmtCount(p.Expired, reps),
			fmtCount(p.CtrlTimeouts, reps),
			fmtCount(p.Completed, reps),
			fmtCount(p.QoSOK, reps),
			fmtCount(p.Failed, reps),
			fmtCount(p.QoSAbandoned, reps),
			fmtCount(int(g.Violations), reps),
			fmtCount(int(g.ViolatedSessions), reps),
			fmtCount(int(g.StepDowns), reps),
			fmtCount(int(g.Renegotiates), reps),
			fmtCount(int(g.Migrations), reps),
			fmtCount(int(g.Abandons), reps),
			fmtCount(int(g.Saved()), reps),
			fmtCount(int(p.BreakerOpens), reps),
			fmtCount(int(p.BreakerFastFails), reps),
			fmtCount(int(p.RetriesSuppressed), reps),
			fmt.Sprintf("%.3f", p.BreakerOpenSeconds/float64(reps)),
			fmt.Sprintf("%.3f", sum.Mean()),
			fmt.Sprintf("%.3f", p.Latency.Percentile(50)),
			fmt.Sprintf("%.3f", p.Latency.Percentile(95)),
			fmt.Sprintf("%.3f", p.Latency.Percentile(99)),
			fmt.Sprintf("%.3f", sum.Max()),
		})
	}
	return t
}

// overloadVariant finds a named variant in the pair (nil if absent).
func overloadVariant(points []*OverloadPoint, name string) *OverloadPoint {
	for _, p := range points {
		if p.Variant == name {
			return p
		}
	}
	return nil
}

// FormatOverload renders the pair the way an operator compares them: what
// the ramp cost without protections, and what each protection bought.
func FormatOverload(cfg OverloadConfig, points []*OverloadPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Overload: %.0f s ramp", simtime.ToSeconds(cfg.Horizon()))
	for i, p := range cfg.Phases {
		if i == 0 {
			b.WriteString(" (")
		} else {
			b.WriteString("→")
		}
		fmt.Fprintf(&b, "%g", p.Rate*cfg.BaseLoad)
	}
	b.WriteString(" qps), congestion on srv-a/srv-b, srv-c partition at the crest")
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-9s %8s %9s %9s %8s %8s %10s %7s %7s %10s %10s %10s\n",
		"variant", "queries", "admitted", "rejected", "expired", "failed", "abandoned",
		"qos-ok", "opens", "p50(ms)", "p99(ms)", "max(ms)")
	for _, p := range points {
		reps := p.reps()
		fmt.Fprintf(&b, "%-9s %8s %9s %9s %8s %8s %10s %7s %7s %10.3f %10.3f %10.3f\n",
			p.Variant, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps), fmtCount(p.Expired, reps), fmtCount(p.Failed, reps),
			fmtCount(p.QoSAbandoned, reps), fmtCount(p.QoSOK, reps), fmtCount(int(p.BreakerOpens), reps),
			p.Latency.Percentile(50), p.Latency.Percentile(99), p.Latency.Summary().Max())
	}
	if guard := overloadVariant(points, "guarded"); guard != nil {
		g := guard.Guardian
		reps := guard.reps()
		fmt.Fprintf(&b, "\nGuardian: %s violated sessions, rungs fired stepdown %s  renegotiate %s  migrate %s  abandon %s\n",
			fmtCount(int(g.ViolatedSessions), reps), fmtCount(int(g.StepDowns), reps),
			fmtCount(int(g.Renegotiates), reps), fmtCount(int(g.Migrations), reps), fmtCount(int(g.Abandons), reps))
		fmt.Fprintf(&b, "Saved short of abandonment: %s of %s violated (%.0f%%)  abandon rate %.1f%% of admitted\n",
			fmtCount(int(g.Saved()), reps), fmtCount(int(g.ViolatedSessions), reps),
			100*guard.SavedRate(), 100*guard.AbandonRate())
		fmt.Fprintf(&b, "Breaker: open %.2f s total, %s fast-fails, %s retries suppressed\n",
			guard.BreakerOpenSeconds/float64(reps), fmtCount(int(guard.BreakerFastFails), reps),
			fmtCount(int(guard.RetriesSuppressed), reps))
	}
	if base, guard := overloadVariant(points, "baseline"), overloadVariant(points, "guarded"); base != nil && guard != nil {
		fmt.Fprintf(&b, "Admission p99: baseline %.1f ms → guarded %.1f ms\n",
			base.Latency.Percentile(99), guard.Latency.Percentile(99))
	}
	return b.String()
}
