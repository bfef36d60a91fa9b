package experiments

import (
	"fmt"
	"strings"

	"quasaq/internal/core"
	"quasaq/internal/media"
	"quasaq/internal/netsim"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/workload"
)

// DynamicResult compares QuaSAQ starting from single-copy storage with and
// without the online replicator (the §2 item 1 extension): the replicator
// should materialize the demanded quality ladder over time and close most
// of the throughput gap to offline full replication.
type DynamicResult struct {
	StaticSingle    *Series // single-copy, no online replication
	DynamicSingle   *Series // single-copy + online replication
	FullReplica     *Series // offline full ladder (upper reference)
	ReplicasCreated int
	// Halves splits the dynamic run's admission rate: convergence shows as
	// a higher second half.
	DynamicAdmitFirstHalf  float64
	DynamicAdmitSecondHalf float64
}

// dynamicPoint is one configuration of the dynamic-replication comparison:
// its throughput series plus the replicator's own outcomes (zero for the
// static configurations).
type dynamicPoint struct {
	Series          *Series
	ReplicasCreated int
	AdmitFirstHalf  float64
	AdmitSecondHalf float64
	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int
}

func (d *dynamicPoint) reps() int {
	if d.Replicas < 1 {
		return 1
	}
	return d.Replicas
}

// Merge folds another replica's point in: series merge, replica-count sums,
// and replica-weighted admission-rate means.
func (d *dynamicPoint) Merge(o *dynamicPoint) {
	ra, rb := float64(d.reps()), float64(o.reps())
	d.Series.Merge(o.Series)
	d.ReplicasCreated += o.ReplicasCreated
	d.AdmitFirstHalf = (d.AdmitFirstHalf*ra + o.AdmitFirstHalf*rb) / (ra + rb)
	d.AdmitSecondHalf = (d.AdmitSecondHalf*ra + o.AdmitSecondHalf*rb) / (ra + rb)
	d.Replicas = d.reps() + o.reps()
}

// RunDynamicReplication runs the three configurations on identical query
// streams, each one hermetic point: static single-copy, single-copy plus
// the online replicator, and the offline full ladder.
func RunDynamicReplication(cfg ThroughputConfig, opts runner.Options) (*DynamicResult, error) {
	keys := []string{"single-static", "single-dynamic", "full"}
	opts.Seed = cfg.Seed
	points, err := runner.Sweep("dynamic", keys, opts, func(i int, seed int64) (*dynamicPoint, error) {
		c := cfg
		c.Seed = seed
		switch keys[i] {
		case "single-dynamic":
			return runDynamicSingle(c)
		case "single-static":
			c.SingleCopy = true
		}
		series, err := RunThroughput(SysQuaSAQ, c)
		if err != nil {
			return nil, err
		}
		return &dynamicPoint{Series: series}, nil
	})
	if err != nil {
		return nil, err
	}
	static, dynamic, full := points[0], points[1], points[2]
	return &DynamicResult{
		StaticSingle:           static.Series,
		DynamicSingle:          dynamic.Series,
		FullReplica:            full.Series,
		ReplicasCreated:        dynamic.ReplicasCreated / dynamic.reps(),
		DynamicAdmitFirstHalf:  dynamic.AdmitFirstHalf,
		DynamicAdmitSecondHalf: dynamic.AdmitSecondHalf,
	}, nil
}

// runDynamicSingle is the hermetic single-copy + online-replication cell:
// it builds its own world (the replicator must be wired into the serving
// path, so it cannot reuse RunThroughput) and reports the replicator's
// outcomes next to the throughput series.
func runDynamicSingle(cfg ThroughputConfig) (*dynamicPoint, error) {
	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(cfg.Seed))
	if _, err := cluster.LoadCorpus(corpus, replication.SingleCopyPolicy()); err != nil {
		return nil, err
	}
	sites := make([]replication.Site, 0, 3)
	for _, s := range cluster.Sites() {
		sites = append(sites, replication.Site{Name: s, Blobs: cluster.Blobs[s]})
	}
	dyn := replication.NewDynamic(sim, cluster.Dir, corpus, sites)
	links := map[string]*netsim.Link{}
	for name, node := range cluster.Nodes {
		links[name] = node.Link()
	}
	dyn.SetLinks(links)
	dyn.Start(simtime.Seconds(20), 4)

	out := &Series{System: SysQuaSAQ, Bucket: cfg.Bucket}
	mgr := core.NewManager(cluster, core.LRB{})
	var admitTimes []simtime.Time
	gen := paperWorkload(cfg.Seed, cluster, corpus)
	gen.Drive(sim, cfg.Horizon, func(r workload.Request) {
		out.Queries++
		dyn.Observe(r.Video, r.Req)
		if _, err := mgr.Service(r.Site, r.Video, r.Req, core.ServiceOptions{
			OnDone: func(d *core.Delivery) {
				out.Completed++
				if d.Session.QoSOK() {
					out.QoSOK++
				}
			},
		}); err != nil {
			out.Rejected++
		} else {
			out.Admitted++
			admitTimes = append(admitTimes, sim.Now())
		}
	})
	samples := int(cfg.Horizon / cfg.Bucket)
	for i := 1; i <= samples; i++ {
		at := simtime.Time(i) * cfg.Bucket
		sim.ScheduleAt(at, func() {
			out.Times = append(out.Times, simtime.ToSeconds(sim.Now()))
			out.Outstanding = append(out.Outstanding, float64(cluster.OutstandingSessions()))
		})
	}
	sim.RunUntil(cfg.Horizon)

	half := cfg.Horizon / 2
	var first, second int
	for _, t := range admitTimes {
		if t < half {
			first++
		} else {
			second++
		}
	}
	halfSecs := simtime.ToSeconds(half)
	return &dynamicPoint{
		Series:          out,
		ReplicasCreated: dyn.Created(),
		AdmitFirstHalf:  float64(first) / halfSecs,
		AdmitSecondHalf: float64(second) / halfSecs,
	}, nil
}

// FormatDynamic renders the comparison.
func FormatDynamic(r *DynamicResult) string {
	var b strings.Builder
	b.WriteString("Dynamic replication (extension of §2 item 1: single-copy start)\n")
	fmt.Fprintf(&b, "%-28s %10s %10s %10s\n", "Configuration", "SteadyOut", "Admitted", "QoS-OK")
	row := func(name string, s *Series) {
		fmt.Fprintf(&b, "%-28s %10.1f %10s %10s\n",
			name, s.SteadyOutstanding(), fmtCount(s.Admitted, s.Reps()), fmtCount(s.QoSOK, s.Reps()))
	}
	row("single-copy, static", r.StaticSingle)
	row("single-copy + dynamic", r.DynamicSingle)
	row("offline full ladder", r.FullReplica)
	fmt.Fprintf(&b, "replicas materialized online: %d\n", r.ReplicasCreated)
	fmt.Fprintf(&b, "dynamic admission rate: %.2f/s first half -> %.2f/s second half\n",
		r.DynamicAdmitFirstHalf, r.DynamicAdmitSecondHalf)
	return b.String()
}
