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
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/vdbms"
	"quasaq/internal/workload"
)

// The SLA experiment sweeps clause strictness: every arriving query carries
// the same WITH QOS network clause (a "tier"), the admission gate prices it
// against the candidate plans, and the guardian enforces it over the live
// windows while link congestion squeezes two delivery sites. Each declared
// violation and recovery lands in the vdbms's own qoe table; when the world
// drains, the per-metric violation counts and QoE severity percentiles are
// read back with SELECT ... FROM qoe — the database reports on its own
// service quality, which is the paper's end-to-end loop closed.

// SLATier is one clause-strictness level. The clause is QoS-term text as it
// would appear inside WITH QOS (...), parsed by the vdbms parser, so the
// experiment exercises the exact surface a client would.
type SLATier struct {
	Name   string
	Clause string // "" or "any" = no network terms (control tier)
}

// SLAConfig parameterizes the sweep.
type SLAConfig struct {
	Seed     int64
	BaseLoad float64          // queries per second at phase rate 1
	Phases   []workload.Phase // arrival ramp; the horizon is their sum
	Schedule faults.Schedule  // congestion plan shared by every tier
	Ctrl     broker.Config
	Guardian guardian.Config
	Tiers    []SLATier
}

// DefaultSLAConfig ramps 1→8→1 qps over 140 s with mid-run congestion on
// srv-a and srv-b, swept over four tiers from no clause to a strict one.
// The delay bounds bracket the corpus's priced inter-frame delays
// (1000/fps ≈ 33–50 ms) and the throughput floors bracket the low quality
// tiers' bitrates, so stricter tiers genuinely reject and violate more.
func DefaultSLAConfig() SLAConfig {
	return SLAConfig{
		Seed:     31,
		BaseLoad: 1,
		Phases: []workload.Phase{
			{Rate: 1, Duration: simtime.Seconds(30)},
			{Rate: 8, Duration: simtime.Seconds(80)},
			{Rate: 1, Duration: simtime.Seconds(30)},
		},
		Schedule: faults.Schedule{
			{At: simtime.Seconds(40), Kind: faults.LinkCongest, Target: "srv-a", Factor: 0.5},
			{At: simtime.Seconds(55), Kind: faults.LinkCongest, Target: "srv-b", Factor: 0.6},
			{At: simtime.Seconds(110), Kind: faults.LinkRestore, Target: "srv-a"},
			{At: simtime.Seconds(120), Kind: faults.LinkRestore, Target: "srv-b"},
		},
		Ctrl:     broker.TestbedConfig(),
		Guardian: guardian.Config{},
		Tiers: []SLATier{
			{Name: "none", Clause: "any"},
			{Name: "bronze", Clause: "loss <= 0.25, delay <= 120"},
			{Name: "silver", Clause: "loss <= 0.10, delay <= 60, throughput >= 40000"},
			{Name: "gold", Clause: "loss <= 0.04, delay <= 48, jitter <= 45, throughput >= 90000"},
		},
	}
}

// Horizon is the arrival window: the sum of the phase durations.
func (c SLAConfig) Horizon() simtime.Time {
	var h simtime.Time
	for _, p := range c.Phases {
		h += p.Duration
	}
	return h
}

// SLAPoint is one tier's outcome.
type SLAPoint struct {
	Tier   string
	Clause string // canonical clause text (Requirement.String of the net terms)

	Queries       int
	Admitted      int
	Rejected      int
	Unsatisfiable int // rejections carrying core.ErrQoSUnsatisfiable
	Completed     int
	QoSOK         int
	Failed        int
	Abandoned     int // failures carrying guardian.ErrQoSAbandoned

	Guardian guardian.Stats

	// Read back through the vdbms engine after the drain (SELECT ... FROM
	// qoe), not from in-process counters: the persisted history is the
	// artifact under test.
	QoERows       int
	QoEViolations int
	QoERecovered  int
	QoEPeaks      int

	// Severity samples pooled from the qoe violation rows' avg column.
	DelaySeverity *stats.Sample // ms
	LossSeverity  *stats.Sample // fraction

	Replicas int
}

func (p *SLAPoint) reps() int {
	if p.Replicas < 1 {
		return 1
	}
	return p.Replicas
}

// Merge folds another replica's point in: counters sum, severity samples
// pool, guardian counters add.
func (p *SLAPoint) Merge(o *SLAPoint) {
	p.Queries += o.Queries
	p.Admitted += o.Admitted
	p.Rejected += o.Rejected
	p.Unsatisfiable += o.Unsatisfiable
	p.Completed += o.Completed
	p.QoSOK += o.QoSOK
	p.Failed += o.Failed
	p.Abandoned += o.Abandoned
	p.Guardian = addGuardianStats(p.Guardian, o.Guardian)
	p.QoERows += o.QoERows
	p.QoEViolations += o.QoEViolations
	p.QoERecovered += o.QoERecovered
	p.QoEPeaks += o.QoEPeaks
	for _, x := range o.DelaySeverity.Values() {
		p.DelaySeverity.Add(x)
	}
	for _, x := range o.LossSeverity.Values() {
		p.LossSeverity.Add(x)
	}
	p.Replicas = p.reps() + o.reps()
}

// slaTier finds a tier by name.
func (c SLAConfig) slaTier(name string) (SLATier, bool) {
	for _, t := range c.Tiers {
		if t.Name == name {
			return t, true
		}
	}
	return SLATier{}, false
}

// RunSLA sweeps the configured tiers: each tier is one point.
func RunSLA(cfg SLAConfig, opts runner.Options) ([]*SLAPoint, error) {
	keys := make([]string, len(cfg.Tiers))
	for i, t := range cfg.Tiers {
		keys[i] = t.Name
	}
	opts.Seed = cfg.Seed
	return runner.Sweep("sla", keys, opts, func(i int, seed int64) (*SLAPoint, error) {
		return runSLAPoint(cfg, keys[i], seed)
	})
}

// runSLAPoint runs one tier in a hermetic world and drains it completely,
// then queries the QoE history back through the vdbms engine.
func runSLAPoint(cfg SLAConfig, tierName string, seed int64) (*SLAPoint, error) {
	tier, ok := cfg.slaTier(tierName)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown SLA tier %q", tierName)
	}
	if cfg.BaseLoad <= 0 {
		return nil, fmt.Errorf("experiments: non-positive base load %v", cfg.BaseLoad)
	}
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("experiments: SLA needs a phase ramp")
	}
	parsed, err := vdbms.ParseRequirement(tier.Clause)
	if err != nil {
		return nil, fmt.Errorf("experiments: tier %q clause: %w", tier.Name, err)
	}
	clause := parsed.Net

	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(seed))
	if _, err := cluster.LoadCorpus(corpus, replication.DefaultPolicy()); err != nil {
		return nil, err
	}
	ctrl := cfg.Ctrl
	ctrl.Seed = seed
	if err := cluster.ConfigureControl(ctrl); err != nil {
		return nil, err
	}
	mgr := core.NewManager(cluster, core.LRB{})
	pol := core.DefaultFailoverPolicy()
	pol.BestEffortFallback = true
	mgr.EnableFailover(pol)
	guard, err := guardian.New(mgr, cfg.Guardian)
	if err != nil {
		return nil, err
	}

	in := faults.NewInjector(sim)
	for _, site := range cluster.Sites() {
		in.RegisterNode(cluster.Nodes[site])
	}
	if err := in.Apply(cfg.Schedule); err != nil {
		return nil, err
	}

	out := &SLAPoint{
		Tier:          tier.Name,
		Clause:        clauseString(clause),
		DelaySeverity: &stats.Sample{},
		LossSeverity:  &stats.Sample{},
	}
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
		Phases:           cfg.Phases,
	})
	gen.Drive(sim, cfg.Horizon(), func(r workload.Request) {
		out.Queries++
		req := r.Req.WithNet(clause...)
		mgr.ServiceAsync(r.Site, r.Video, req, core.ServiceOptions{
			OnDone: func(d *core.Delivery) {
				out.Completed++
				if d.Session.QoSOK() {
					out.QoSOK++
				}
			},
			OnFailed: func(_ *core.Delivery, err error) {
				out.Failed++
				if errors.Is(err, guardian.ErrQoSAbandoned) {
					out.Abandoned++
				}
			},
		}, func(_ *core.Delivery, err error) {
			if err != nil {
				out.Rejected++
				if errors.Is(err, core.ErrQoSUnsatisfiable) {
					out.Unsatisfiable++
				}
				return
			}
			out.Admitted++
		})
	})
	sim.Run()

	if got := out.Admitted + out.Rejected; got != out.Queries {
		return nil, fmt.Errorf("experiments: %d of %d SLA admissions never settled", out.Queries-got, out.Queries)
	}
	if got := out.Completed + out.Failed; got != out.Admitted {
		return nil, fmt.Errorf("experiments: %d of %d SLA sessions never concluded", out.Admitted-got, out.Admitted)
	}
	out.Guardian = guard.Stats()
	if err := out.readQoE(cluster.Engine); err != nil {
		return nil, err
	}
	return out, nil
}

// readQoE fills the point's QoE fields by querying the engine's qoe table —
// the same SELECT surface any client gets.
func (p *SLAPoint) readQoE(e *vdbms.Engine) error {
	all, _, err := e.QoESQL("SELECT * FROM qoe")
	if err != nil {
		return err
	}
	p.QoERows = len(all)
	viols, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'violation'")
	if err != nil {
		return err
	}
	p.QoEViolations = len(viols)
	rec, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'recovered'")
	if err != nil {
		return err
	}
	p.QoERecovered = len(rec)
	peaks, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'violation' AND peak = 1")
	if err != nil {
		return err
	}
	p.QoEPeaks = len(peaks)
	delays, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'violation' AND metric = 'delay'")
	if err != nil {
		return err
	}
	for _, r := range delays {
		p.DelaySeverity.Add(r.Avg)
	}
	losses, _, err := e.QoESQL("SELECT * FROM qoe WHERE kind = 'violation' AND metric = 'loss'")
	if err != nil {
		return err
	}
	for _, r := range losses {
		p.LossSeverity.Add(r.Avg)
	}
	return nil
}

// SLATable renders the sweep as tidy CSV: one row per tier. Counter columns
// of replica-merged points emit cross-replica means; the severity quantiles
// read the pooled cross-replica samples.
func SLATable(points []*SLAPoint) Table {
	t := Table{Header: []string{
		"tier", "clause", "queries", "admitted", "rejected", "unsatisfiable",
		"completed", "qos_ok", "failed", "abandoned",
		"viol_loss", "viol_delay", "viol_jitter", "viol_throughput",
		"qoe_rows", "qoe_violations", "qoe_recovered", "qoe_peaks",
		"qoe_delay_p95_ms", "qoe_delay_p99_ms", "qoe_loss_p95", "qoe_loss_p99",
	}}
	for _, p := range points {
		reps := p.reps()
		g := p.Guardian
		t.Rows = append(t.Rows, []string{
			p.Tier,
			p.Clause,
			fmtCount(p.Queries, reps),
			fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps),
			fmtCount(p.Unsatisfiable, reps),
			fmtCount(p.Completed, reps),
			fmtCount(p.QoSOK, reps),
			fmtCount(p.Failed, reps),
			fmtCount(p.Abandoned, reps),
			fmtCount(int(g.LossViolations), reps),
			fmtCount(int(g.DelayViolations), reps),
			fmtCount(int(g.JitterViolations), reps),
			fmtCount(int(g.ThroughputViolations), reps),
			fmtCount(p.QoERows, reps),
			fmtCount(p.QoEViolations, reps),
			fmtCount(p.QoERecovered, reps),
			fmtCount(p.QoEPeaks, reps),
			fmt.Sprintf("%.3f", p.DelaySeverity.Percentile(95)),
			fmt.Sprintf("%.3f", p.DelaySeverity.Percentile(99)),
			fmt.Sprintf("%.4f", p.LossSeverity.Percentile(95)),
			fmt.Sprintf("%.4f", p.LossSeverity.Percentile(99)),
		})
	}
	return t
}

// FormatSLA renders the sweep as a console table.
func FormatSLA(cfg SLAConfig, points []*SLAPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SLA: %.0f s ramp, congestion on srv-a/srv-b, %d clause tiers",
		simtime.ToSeconds(cfg.Horizon()), len(cfg.Tiers))
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-8s %8s %9s %9s %7s %10s %10s %10s %12s %10s\n",
		"tier", "queries", "admitted", "unsatisf", "qos-ok", "abandoned",
		"violations", "qoe-rows", "delay-p99", "loss-p99")
	for _, p := range points {
		reps := p.reps()
		fmt.Fprintf(&b, "%-8s %8s %9s %9s %7s %10s %10s %10s %12.3f %10.4f\n",
			p.Tier, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Unsatisfiable, reps), fmtCount(p.QoSOK, reps),
			fmtCount(p.Abandoned, reps), fmtCount(int(p.Guardian.Violations), reps),
			fmtCount(p.QoERows, reps),
			p.DelaySeverity.Percentile(99), p.LossSeverity.Percentile(99))
	}
	return strings.TrimRight(b.String(), "\n")
}

// clauseString renders the net terms canonically (empty for the control tier).
func clauseString(ts []qos.Threshold) string {
	if len(ts) == 0 {
		return "any"
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return strings.Join(parts, ", ")
}
