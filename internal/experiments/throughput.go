package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"quasaq/internal/core"
	"quasaq/internal/media"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/transport"
	"quasaq/internal/workload"
)

// SystemKind selects which delivery system a throughput run exercises.
type SystemKind int

// The three systems compared in Figure 6, plus QuaSAQ cost-model variants
// for Figure 7 and the ablations.
const (
	SysVDBMS SystemKind = iota
	SysQoSAPI
	SysQuaSAQ
	SysQuaSAQRandom
	SysQuaSAQMinSum
	SysQuaSAQStatic
)

// String names the system as the paper's legends do.
func (s SystemKind) String() string {
	switch s {
	case SysVDBMS:
		return "VDBMS"
	case SysQoSAPI:
		return "VDBMS+QoS API"
	case SysQuaSAQ:
		return "VDBMS+QuaSAQ"
	case SysQuaSAQRandom:
		return "QuaSAQ (Random)"
	case SysQuaSAQMinSum:
		return "QuaSAQ (Min-Sum)"
	case SysQuaSAQStatic:
		return "QuaSAQ (Static)"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(s))
	}
}

// ThroughputConfig parameterizes a throughput run.
type ThroughputConfig struct {
	Seed    int64
	Horizon simtime.Time // total simulated time
	Bucket  simtime.Time // sampling bucket for the series
	// SingleCopy switches replication to the single-copy ablation.
	SingleCopy bool
}

// DefaultFig6Config is the paper's Figure 6 setup: 1000 seconds, queries
// every ~1 s.
func DefaultFig6Config() ThroughputConfig {
	return ThroughputConfig{Seed: 11, Horizon: simtime.Seconds(1000), Bucket: simtime.Seconds(20)}
}

// DefaultFig7Config is the paper's Figure 7 setup: 7000 seconds.
func DefaultFig7Config() ThroughputConfig {
	return ThroughputConfig{Seed: 13, Horizon: simtime.Seconds(7000), Bucket: simtime.Seconds(100)}
}

// Series is one system's throughput trajectory. After a replica merge the
// counters hold totals and the sampled series hold element-wise sums over
// Replicas runs; the accessors and exporters normalize back to per-replica
// means, so a single-replica series reads exactly as before.
type Series struct {
	System SystemKind
	Name   string // display override (ablation variants); System.String() when empty
	Bucket simtime.Time
	Times  []float64 // bucket end times, seconds

	Outstanding []float64 // sampled outstanding sessions (Fig 6a / 7a)
	SucceededPM []float64 // QoS-succeeding completions per minute (Fig 6b)
	CumRejects  []float64 // cumulative rejected queries (Fig 7b)

	Queries   int
	Admitted  int
	Rejected  int
	Completed int
	QoSOK     int

	// Replicas counts the replica runs folded into this series (0 or 1
	// means a single run).
	Replicas int
}

// DisplayName is the legend label: the variant name when set, else the
// system's paper name.
func (s *Series) DisplayName() string {
	if s.Name != "" {
		return s.Name
	}
	return s.System.String()
}

// Reps returns the number of replica runs folded into the series, at least 1.
func (s *Series) Reps() int {
	if s.Replicas < 1 {
		return 1
	}
	return s.Replicas
}

// Merge folds another replica's series into s: counters sum, sampled series
// add element-wise, and Replicas grows, so means recover by dividing by
// Reps(). Both series must come from the same config (equal bucketing and
// sample counts); the receiver keeps its Times axis.
func (s *Series) Merge(o *Series) {
	if len(o.Outstanding) != len(s.Outstanding) || o.Bucket != s.Bucket {
		panic(fmt.Sprintf("experiments: merging mismatched series (%d/%v vs %d/%v samples)",
			len(s.Outstanding), s.Bucket, len(o.Outstanding), o.Bucket))
	}
	for i := range s.Outstanding {
		s.Outstanding[i] += o.Outstanding[i]
	}
	for i := range s.SucceededPM {
		s.SucceededPM[i] += o.SucceededPM[i]
	}
	for i := range s.CumRejects {
		s.CumRejects[i] += o.CumRejects[i]
	}
	s.Queries += o.Queries
	s.Admitted += o.Admitted
	s.Rejected += o.Rejected
	s.Completed += o.Completed
	s.QoSOK += o.QoSOK
	s.Replicas = s.Reps() + o.Reps()
}

// SteadyOutstanding averages the outstanding-session samples over the last
// half of the run: the "stable stage" the paper compares (§5.2). For a
// merged series this is the cross-replica mean.
func (s *Series) SteadyOutstanding() float64 {
	n := len(s.Outstanding)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Outstanding[n/2:] {
		sum += v
	}
	return sum / float64(n-n/2) / float64(s.Reps())
}

// RunThroughput runs one system against the paper's workload.
func RunThroughput(sys SystemKind, cfg ThroughputConfig) (*Series, error) {
	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(cfg.Seed))
	pol := replication.DefaultPolicy()
	if cfg.SingleCopy {
		pol = replication.SingleCopyPolicy()
	}
	if _, err := cluster.LoadCorpus(corpus, pol); err != nil {
		return nil, err
	}

	out := &Series{System: sys, Bucket: cfg.Bucket}
	succeeded := stats.NewTimeSeries(cfg.Bucket)
	rejects := stats.NewTimeSeries(cfg.Bucket)

	onSessionDone := func(sess *transport.Session) {
		out.Completed++
		if sess.QoSOK() {
			out.QoSOK++
			succeeded.Observe(sess.Finished(), 1)
		}
	}

	var serve func(site string, id media.VideoID, req workload.Request) error
	switch sys {
	case SysVDBMS:
		svc := core.NewVDBMSService(cluster)
		serve = func(site string, id media.VideoID, _ workload.Request) error {
			_, err := svc.Service(site, id, 0, onSessionDone)
			return err
		}
	case SysQoSAPI:
		svc := core.NewQoSAPIService(cluster)
		serve = func(site string, id media.VideoID, _ workload.Request) error {
			_, err := svc.Service(site, id, 0, onSessionDone)
			return err
		}
	default:
		var model core.CostModel
		switch sys {
		case SysQuaSAQRandom:
			model = core.NewRandom(simtime.NewRand(cfg.Seed + 1000))
		case SysQuaSAQMinSum:
			model = core.MinSum{}
		case SysQuaSAQStatic:
			model = core.StaticCheapest{}
		default:
			model = core.LRB{}
		}
		mgr := core.NewManager(cluster, model)
		serve = func(site string, id media.VideoID, req workload.Request) error {
			_, err := mgr.Service(site, id, req.Req, core.ServiceOptions{
				OnDone: func(d *core.Delivery) { onSessionDone(d.Session) },
			})
			return err
		}
	}

	gen := paperWorkload(cfg.Seed, cluster, corpus)
	gen.Drive(sim, cfg.Horizon, func(r workload.Request) {
		out.Queries++
		if err := serve(r.Site, r.Video, r); err != nil {
			out.Rejected++
			rejects.Observe(sim.Now(), 1)
		} else {
			out.Admitted++
		}
	})

	// Sample outstanding sessions once per bucket.
	samples := int(cfg.Horizon / cfg.Bucket)
	for i := 1; i <= samples; i++ {
		at := simtime.Time(i) * cfg.Bucket
		sim.ScheduleAt(at, func() {
			out.Times = append(out.Times, simtime.ToSeconds(sim.Now()))
			out.Outstanding = append(out.Outstanding, float64(cluster.OutstandingSessions()))
		})
	}
	sim.RunUntil(cfg.Horizon)

	perMinFactor := 60 / simtime.ToSeconds(cfg.Bucket)
	for i := 0; i < samples; i++ {
		out.SucceededPM = append(out.SucceededPM, succeeded.Sum(i)*perMinFactor)
	}
	cum := 0.0
	for i := 0; i < samples; i++ {
		cum += rejects.Sum(i)
		out.CumRejects = append(out.CumRejects, cum)
	}
	return out, nil
}

// ThroughputVariant is one point of a throughput sweep: a delivery system
// plus the replication ablation toggle.
type ThroughputVariant struct {
	Key        string
	Label      string // display name; Sys.String() when empty
	Sys        SystemKind
	SingleCopy bool
}

// ThroughputScenario is one throughput grid: a set of system variants under
// one workload config.
type ThroughputScenario struct {
	Name     string
	Cfg      ThroughputConfig
	Variants []ThroughputVariant
}

// NewFig6Scenario is Figure 6's grid: the three systems of the paper.
func NewFig6Scenario(cfg ThroughputConfig) *ThroughputScenario {
	return &ThroughputScenario{Name: "fig6", Cfg: cfg, Variants: []ThroughputVariant{
		{Key: "vdbms", Sys: SysVDBMS},
		{Key: "qosapi", Sys: SysQoSAPI},
		{Key: "quasaq", Sys: SysQuaSAQ},
	}}
}

// NewFig7Scenario is Figure 7's grid: randomized vs LRB plan selection.
func NewFig7Scenario(cfg ThroughputConfig) *ThroughputScenario {
	return &ThroughputScenario{Name: "fig7", Cfg: cfg, Variants: []ThroughputVariant{
		{Key: "random", Sys: SysQuaSAQRandom},
		{Key: "lrb", Sys: SysQuaSAQ},
	}}
}

// NewAblationScenario is the cost-model and replication ablation grid.
func NewAblationScenario(cfg ThroughputConfig) *ThroughputScenario {
	return &ThroughputScenario{Name: "ablation", Cfg: cfg, Variants: []ThroughputVariant{
		{Key: "lrb", Sys: SysQuaSAQ},
		{Key: "random", Sys: SysQuaSAQRandom},
		{Key: "minsum", Sys: SysQuaSAQMinSum},
		{Key: "static", Sys: SysQuaSAQStatic},
		{Key: "single-copy", Label: "QuaSAQ (single-copy)", Sys: SysQuaSAQ, SingleCopy: true},
	}}
}

// NewThroughputScenario is the full system sweep: every delivery system and
// cost model under one workload, the widest grid qsqbench offers
// (-exp throughput).
func NewThroughputScenario(cfg ThroughputConfig) *ThroughputScenario {
	return &ThroughputScenario{Name: "throughput", Cfg: cfg, Variants: []ThroughputVariant{
		{Key: "vdbms", Sys: SysVDBMS},
		{Key: "qosapi", Sys: SysQoSAPI},
		{Key: "quasaq", Sys: SysQuaSAQ},
		{Key: "random", Sys: SysQuaSAQRandom},
		{Key: "minsum", Sys: SysQuaSAQMinSum},
		{Key: "static", Sys: SysQuaSAQStatic},
	}}
}

// RunSweep runs a throughput grid (Figures 6 and 7, the ablations, the full
// system sweep): every variant is one hermetic RunThroughput world per
// replica. All variants of one replica share its seed, so cross-system
// comparisons stay paired exactly as the paper's "identical query streams"
// protocol demands. The series come back in variant order.
func RunSweep(sc *ThroughputScenario, opts runner.Options) ([]*Series, error) {
	keys := make([]string, len(sc.Variants))
	for i, v := range sc.Variants {
		keys[i] = v.Key
	}
	opts.Seed = sc.Cfg.Seed
	return runner.Sweep(sc.Name, keys, opts, func(i int, seed int64) (*Series, error) {
		v := sc.Variants[i]
		cfg := sc.Cfg
		cfg.Seed = seed
		cfg.SingleCopy = cfg.SingleCopy || v.SingleCopy
		out, err := RunThroughput(v.Sys, cfg)
		if err != nil {
			return nil, err
		}
		if v.Label != "" {
			out.Name = v.Label
		}
		return out, nil
	})
}

// fmtCount renders a replica-merged counter: the exact total for a single
// run, the cross-replica mean once replicas were folded in.
func fmtCount(n, reps int) string {
	if reps <= 1 {
		return strconv.Itoa(n)
	}
	return strconv.FormatFloat(float64(n)/float64(reps), 'f', 1, 64)
}

// FormatThroughput renders series the way the paper's figures are read:
// steady-state outstanding sessions, success rates, rejects. Counters of a
// replica-merged series render as cross-replica means.
func FormatThroughput(title string, series []*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", title)
	if len(series) > 0 && series[0].Reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", series[0].Reps())
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-20s %8s %9s %9s %10s %12s %12s\n",
		"System", "Queries", "Admitted", "Rejected", "Completed", "QoS-OK/min", "SteadyOut")
	for _, s := range series {
		reps := s.Reps()
		dur := simtime.ToSeconds(s.Bucket) * float64(len(s.SucceededPM))
		perMin := 0.0
		if dur > 0 {
			perMin = float64(s.QoSOK) / float64(reps) / dur * 60
		}
		fmt.Fprintf(&b, "%-20s %8s %9s %9s %10s %12.1f %12.1f\n",
			s.DisplayName(), fmtCount(s.Queries, reps), fmtCount(s.Admitted, reps),
			fmtCount(s.Rejected, reps), fmtCount(s.Completed, reps), perMin, s.SteadyOutstanding())
	}
	b.WriteString("\nOutstanding sessions over time:\n")
	for _, s := range series {
		tr := &stats.Trace{}
		for i, v := range s.Outstanding {
			tr.Add(simtime.Time(i), v/float64(s.Reps()))
		}
		fmt.Fprintf(&b, "\n%s\n%s", s.DisplayName(), tr.ASCIIPlot(80, 6, 0))
	}
	return b.String()
}
