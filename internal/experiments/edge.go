package experiments

import (
	"fmt"
	"strings"

	"quasaq/internal/core"
	"quasaq/internal/edgecache"
	"quasaq/internal/media"
	"quasaq/internal/metadata"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/workload"
)

// The edge experiment measures what the proxy-cache tier buys: the same
// Zipf-skewed diurnal workload (with a flash-crowd spike) runs once against
// the plain origin-only testbed and once with two cooperative edge sites
// caching hot prefixes. Per mode it reports viewer startup latency
// (p50/p90/p99), the edge hit ratio, how many planned delivery bytes the
// tier kept off the origin links, and the reject rate — the acceptance
// claim is lower startup tails and measurable origin offload at a reject
// rate no worse than edge-less.
//
// Startup latency is modeled, not streamed: an admitted viewer waits one
// round trip to the site serving its first frame plus a queueing term that
// grows with that site's bucket fill at admission (Eq. 1's (U+r)/R for the
// first leg's demand). Edge sites sit client-side of the backbone, so their
// RTT is a fraction of the origins' — the split plan's whole point.
// Offload is likewise planned bytes: a split plan serves the GOPs before
// the handover boundary from the edge copy and only the tail from an
// origin.

// EdgeMode names one sweep point.
const (
	EdgeModeOff = "edgeless"
	EdgeModeOn  = "edge"
)

// EdgeExpConfig parameterizes the comparison.
type EdgeExpConfig struct {
	Seed     int64
	BaseLoad float64          // queries per second at phase rate 1
	ZipfSkew float64          // catalog popularity skew
	Phases   []workload.Phase // diurnal ramp with a flash-crowd spike
	Edge     edgecache.Config // cache policy for the edge point
	Sites    []core.EdgeSite  // edge sites for the edge point

	OriginRTTms float64 // round trip to an origin site
	EdgeRTTms   float64 // round trip to an edge site
	QueueMs     float64 // queueing scale; the term is QueueMs·fill/(1.1−fill)
}

// DefaultEdgeExpConfig is a 160 s diurnal curve — quiet, busy, quiet — with
// a 20 s flash crowd at 6x base load, over a Zipf(1.5) catalog so a hot
// head dominates. The cache admits a prefix after 2 hits in a decay window,
// budgets 192 MB per edge site, and promotes sustained-hot prefixes to full
// edge replicas.
func DefaultEdgeExpConfig() EdgeExpConfig {
	return EdgeExpConfig{
		Seed:     47,
		BaseLoad: 0.5,
		ZipfSkew: 1.5,
		Phases: []workload.Phase{
			{Rate: 1, Duration: simtime.Seconds(30)},
			{Rate: 3, Duration: simtime.Seconds(50)},
			{Rate: 6, Duration: simtime.Seconds(20)}, // flash crowd
			{Rate: 3, Duration: simtime.Seconds(30)},
			{Rate: 1, Duration: simtime.Seconds(30)},
		},
		Edge: edgecache.Config{
			MinHits:    2,
			PrefixGOPs: 12,
			Interval:   simtime.Seconds(5),
			ByteBudget: 192 << 20,
			// A low promotion threshold lets flash-crowd popularity upgrade
			// hot prefixes to full edge replicas quickly; only full copies
			// take their tails off the origin links.
			PromoteHits: 10,
		},
		Sites:       []core.EdgeSite{{Name: "edge-a"}, {Name: "edge-b"}},
		OriginRTTms: 60,
		EdgeRTTms:   8,
		QueueMs:     80,
	}
}

// Horizon is the arrival window: the sum of the phase durations.
func (c EdgeExpConfig) Horizon() simtime.Time {
	var h simtime.Time
	for _, p := range c.Phases {
		h += p.Duration
	}
	return h
}

// EdgePoint is one mode's outcome.
type EdgePoint struct {
	Mode string

	Queries   int
	Admitted  int
	Rejected  int
	Completed int
	Failed    int

	SplitAdmissions uint64
	Handovers       uint64

	Startup *stats.Sample // modeled viewer startup latency, ms

	// Planned delivery bytes by serving tier (the offload measure).
	OriginBytes int64
	EdgeBytes   int64

	Edge edgecache.Stats

	Replicas int
}

func (p *EdgePoint) reps() int {
	if p.Replicas < 1 {
		return 1
	}
	return p.Replicas
}

// Merge folds another replica's point in.
func (p *EdgePoint) Merge(o *EdgePoint) {
	p.Queries += o.Queries
	p.Admitted += o.Admitted
	p.Rejected += o.Rejected
	p.Completed += o.Completed
	p.Failed += o.Failed
	p.SplitAdmissions += o.SplitAdmissions
	p.Handovers += o.Handovers
	for _, x := range o.Startup.Values() {
		p.Startup.Add(x)
	}
	p.OriginBytes += o.OriginBytes
	p.EdgeBytes += o.EdgeBytes
	p.Edge.Hits += o.Edge.Hits
	p.Edge.Misses += o.Edge.Misses
	p.Edge.Installs += o.Edge.Installs
	p.Edge.Evictions += o.Edge.Evictions
	p.Edge.NeighborFills += o.Edge.NeighborFills
	p.Edge.OriginFills += o.Edge.OriginFills
	p.Edge.Promotions += o.Edge.Promotions
	p.Edge.BytesUsed += o.Edge.BytesUsed
	p.Replicas = p.reps() + o.reps()
}

// RejectRate returns rejected / queries.
func (p *EdgePoint) RejectRate() float64 {
	if p.Queries == 0 {
		return 0
	}
	return float64(p.Rejected) / float64(p.Queries)
}

// OffloadFraction returns the share of planned delivery bytes served from
// edge copies.
func (p *EdgePoint) OffloadFraction() float64 {
	total := p.OriginBytes + p.EdgeBytes
	if total == 0 {
		return 0
	}
	return float64(p.EdgeBytes) / float64(total)
}

// legBytes sizes the [from, to) frame range of a replica's variant in
// bytes, GOP by GOP — the planned load its leg puts on the serving site.
func legBytes(v *media.Video, va media.Variant, from, to int) int64 {
	gop := v.GOP.Len()
	var total int64
	for f := from - from%gop; f < to; f += gop {
		total += va.GOPSize(v, f)
	}
	return total
}

// RunEdge runs the edgeless and edge modes as two points.
func RunEdge(cfg EdgeExpConfig, opts runner.Options) ([]*EdgePoint, error) {
	keys := []string{EdgeModeOff, EdgeModeOn}
	opts.Seed = cfg.Seed
	return runner.Sweep("edge", keys, opts, func(i int, seed int64) (*EdgePoint, error) {
		return runEdgePoint(cfg, keys[i], seed)
	})
}

// runEdgePoint runs one mode in a hermetic world and drains it completely.
func runEdgePoint(cfg EdgeExpConfig, mode string, seed int64) (*EdgePoint, error) {
	if mode != EdgeModeOff && mode != EdgeModeOn {
		return nil, fmt.Errorf("experiments: unknown edge mode %q", mode)
	}
	if cfg.BaseLoad <= 0 {
		return nil, fmt.Errorf("experiments: non-positive base load %v", cfg.BaseLoad)
	}
	if len(cfg.Phases) == 0 {
		return nil, fmt.Errorf("experiments: edge needs a phase schedule")
	}

	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(seed))
	if _, err := cluster.LoadCorpus(corpus, replication.DefaultPolicy()); err != nil {
		return nil, err
	}
	mgr := core.NewManager(cluster, core.LRB{})

	var ec *edgecache.Manager
	if mode == EdgeModeOn {
		var err error
		ec, err = mgr.EnableEdgeTier(cfg.Sites, cfg.Edge)
		if err != nil {
			return nil, err
		}
		sites := cluster.Sites()
		for i, s := range sites {
			ec.MapClient(s, cfg.Sites[i%len(cfg.Sites)].Name)
		}
	}

	out := &EdgePoint{Mode: mode, Startup: &stats.Sample{}}
	jitter := simtime.NewRand(seed ^ 0x5eed)
	gen := workload.New(workload.Config{
		Seed:             seed,
		Videos:           corpus,
		Sites:            cluster.Sites(),
		MeanInterArrival: simtime.Seconds(1 / cfg.BaseLoad),
		ZipfSkew:         cfg.ZipfSkew,
		Phases:           cfg.Phases,
	})
	gen.Drive(sim, cfg.Horizon(), func(r workload.Request) {
		out.Queries++
		if ec != nil {
			ec.Observe(r.Site, r.Video)
		}
		mgr.ServiceAsync(r.Site, r.Video, r.Req, core.ServiceOptions{
			OnDone:   func(*core.Delivery) { out.Completed++ },
			OnFailed: func(*core.Delivery, error) { out.Failed++ },
		}, func(d *core.Delivery, err error) {
			if err != nil {
				out.Rejected++
				return
			}
			out.Admitted++
			out.observeAdmission(cfg, cluster, d, jitter)
		})
	})
	sim.Run()

	if got := out.Admitted + out.Rejected; got != out.Queries {
		return nil, fmt.Errorf("experiments: %d of %d edge admissions never settled", out.Queries-got, out.Queries)
	}
	if got := out.Completed + out.Failed; got != out.Admitted {
		return nil, fmt.Errorf("experiments: %d of %d edge sessions never concluded", out.Admitted-got, out.Admitted)
	}
	ms := mgr.Stats()
	out.SplitAdmissions = ms.SplitAdmissions
	out.Handovers = ms.Handovers
	if ec != nil {
		out.Edge = ec.Stats()
	}
	return out, nil
}

// observeAdmission records the modeled startup latency and the planned
// per-tier byte load of one admitted delivery.
func (out *EdgePoint) observeAdmission(cfg EdgeExpConfig, cluster *core.Cluster, d *core.Delivery, jitter *simtime.Rand) {
	p := d.Plan
	v := d.Video()

	// The first frame comes from the delivery site: either an edge copy
	// (prefix leg of a split plan, or a promoted full edge replica) or an
	// origin. Bytes are attributed to the tier of the site that streams
	// them — a split plan's tail counts against the origin links.
	fromEdge := cluster.Dir.Tier(p.DeliverySite) == metadata.TierEdge
	rtt := cfg.OriginRTTms
	if fromEdge {
		rtt = cfg.EdgeRTTms
	}
	fill := 0.0
	if u, c, err := cluster.Usage(p.DeliverySite); err == nil {
		fill = p.Demand(core.StageDeliver).MaxFillRatio(u, c)
		if fill > 1 {
			fill = 1
		}
	}
	// One round trip to the first-frame site, an M/M/1-style queueing term
	// that blows up as the serving site approaches saturation (this is what
	// separates the tails: offload keeps origin fill lower during the flash
	// crowd), and ±10% deterministic jitter.
	ms := rtt + cfg.QueueMs*fill/(1.1-fill)
	ms *= 0.9 + 0.2*jitter.Float64()
	out.Startup.Add(ms)

	switch {
	case p.Split():
		out.EdgeBytes += legBytes(v, p.Replica.Variant, 0, p.SplitFrame)
		out.OriginBytes += legBytes(v, p.TailReplica.Variant, p.SplitFrame, v.Frames())
	case fromEdge:
		out.EdgeBytes += legBytes(v, p.Replica.Variant, 0, v.Frames())
	default:
		out.OriginBytes += legBytes(v, p.Replica.Variant, 0, v.Frames())
	}
}

// EdgeTable renders the comparison as tidy CSV: one row per mode.
func EdgeTable(points []*EdgePoint) Table {
	t := Table{Header: []string{
		"mode", "queries", "admitted", "rejected", "reject_rate",
		"completed", "failed", "split_admissions", "handovers",
		"startup_ms_p50", "startup_ms_p90", "startup_ms_p99",
		"edge_hit_ratio", "edge_installs", "edge_evictions", "edge_promotions",
		"origin_mb", "edge_mb", "origin_offload",
	}}
	for _, p := range points {
		reps := p.reps()
		t.Rows = append(t.Rows, []string{
			p.Mode,
			fmtCount(p.Queries, reps),
			fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps),
			fmt.Sprintf("%.4f", p.RejectRate()),
			fmtCount(p.Completed, reps),
			fmtCount(p.Failed, reps),
			fmtCount(int(p.SplitAdmissions), reps),
			fmtCount(int(p.Handovers), reps),
			fmt.Sprintf("%.2f", p.Startup.Percentile(50)),
			fmt.Sprintf("%.2f", p.Startup.Percentile(90)),
			fmt.Sprintf("%.2f", p.Startup.Percentile(99)),
			fmt.Sprintf("%.4f", p.Edge.HitRatio()),
			fmtCount(int(p.Edge.Installs), reps),
			fmtCount(int(p.Edge.Evictions), reps),
			fmtCount(int(p.Edge.Promotions), reps),
			fmt.Sprintf("%.1f", float64(p.OriginBytes)/float64(reps)/(1<<20)),
			fmt.Sprintf("%.1f", float64(p.EdgeBytes)/float64(reps)/(1<<20)),
			fmt.Sprintf("%.4f", p.OffloadFraction()),
		})
	}
	return t
}

// FormatEdge renders the comparison as a console table.
func FormatEdge(cfg EdgeExpConfig, points []*EdgePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "edge: %.0f s diurnal + flash crowd, Zipf %.1f, %d edge sites @ %d MB",
		simtime.ToSeconds(cfg.Horizon()), cfg.ZipfSkew, len(cfg.Sites), cfg.Edge.ByteBudget>>20)
	if len(points) > 0 && points[0].reps() > 1 {
		fmt.Fprintf(&b, "  (mean of %d replicas)", points[0].reps())
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-10s %8s %9s %8s %7s %7s %10s %10s %10s %9s %9s\n",
		"mode", "queries", "admitted", "rejects", "splits", "handoff",
		"start-p50", "start-p99", "hit-ratio", "origin-MB", "offload")
	for _, p := range points {
		reps := p.reps()
		fmt.Fprintf(&b, "%-10s %8s %9s %8s %7s %7s %10.1f %10.1f %10.3f %9.1f %9.3f\n",
			p.Mode, fmtCount(p.Queries, reps), fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps), fmtCount(int(p.SplitAdmissions), reps),
			fmtCount(int(p.Handovers), reps),
			p.Startup.Percentile(50), p.Startup.Percentile(99),
			p.Edge.HitRatio(), float64(p.OriginBytes)/float64(reps)/(1<<20),
			p.OffloadFraction())
	}
	return strings.TrimRight(b.String(), "\n")
}
