package experiments

import (
	"fmt"
	"strings"
	"time"

	"quasaq/internal/core"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/workload"
)

// OverheadResult reproduces the §5.2 overhead analysis: QuaSAQ's own cost
// is (a) the query-time planning work (the paper: "a few milliseconds ...
// negligible") and (b) the soft-real-time scheduler's maintenance (the
// paper measured 0.16 ms per 10 ms quantum, 1.6%, on its hardware).
type OverheadResult struct {
	Queries           int
	PlansPerQuery     float64
	PlanMicrosPerQry  float64 // cold-cache wall-clock planning+admission cost per query
	WarmMicrosPerQry  float64 // same workload replayed against a warm candidate cache
	CacheHits         uint64  // plan-cache hits over both passes
	CacheMisses       uint64  // plan-cache misses (cold fills)
	SchedulerOverhead float64 // fraction of CPU spent on dispatch bookkeeping
	DispatchesPerSec  float64

	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int
}

func (r *OverheadResult) reps() float64 {
	if r.Replicas < 1 {
		return 1
	}
	return float64(r.Replicas)
}

// Merge folds another replica's measurement into r: per-query costs average
// weighted by query count, cache and query counters sum, and the scheduler
// figures average weighted by replica count.
func (r *OverheadResult) Merge(o *OverheadResult) {
	qa, qb := float64(r.Queries), float64(o.Queries)
	if qa+qb > 0 {
		r.PlansPerQuery = (r.PlansPerQuery*qa + o.PlansPerQuery*qb) / (qa + qb)
		r.PlanMicrosPerQry = (r.PlanMicrosPerQry*qa + o.PlanMicrosPerQry*qb) / (qa + qb)
		r.WarmMicrosPerQry = (r.WarmMicrosPerQry*qa + o.WarmMicrosPerQry*qb) / (qa + qb)
	}
	ra, rb := r.reps(), o.reps()
	r.SchedulerOverhead = (r.SchedulerOverhead*ra + o.SchedulerOverhead*rb) / (ra + rb)
	r.DispatchesPerSec = (r.DispatchesPerSec*ra + o.DispatchesPerSec*rb) / (ra + rb)
	r.Queries += o.Queries
	r.CacheHits += o.CacheHits
	r.CacheMisses += o.CacheMisses
	r.Replicas = int(ra + rb)
}

// RunOverhead measures both overheads as a single point; replicas rerun the
// measurement on independent workload seeds and average.
func RunOverhead(seed int64, queries int, opts runner.Options) (*OverheadResult, error) {
	opts.Seed = seed
	res, err := runner.Sweep("overhead", []string{"overhead"}, opts, func(_ int, seed int64) (*OverheadResult, error) {
		return runOverheadOnce(seed, queries)
	})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runOverheadOnce measures both overheads in one hermetic world.
func runOverheadOnce(seed int64, queries int) (*OverheadResult, error) {
	if queries <= 0 {
		queries = 500
	}
	// (a) Planning cost: wall-clock time of Service calls (plan
	// enumeration + ranking + admission), amortized per query. The
	// workload is run twice with the same request sequence: the first
	// pass fills the candidate cache (cold), the second replays against
	// it (warm) — the cost split the staged plan pipeline buys.
	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(seed))
	if _, err := cluster.LoadCorpus(corpus, replication.DefaultPolicy()); err != nil {
		return nil, err
	}
	mgr := core.NewManager(cluster, core.LRB{})
	pass := func() time.Duration {
		gen := workload.New(workload.Config{Seed: seed, Videos: corpus, Sites: cluster.Sites()})
		begin := time.Now()
		for i := 0; i < queries; i++ {
			r := gen.Next()
			d, err := mgr.Service(r.Site, r.Video, r.Req, core.ServiceOptions{})
			if err == nil {
				// Cancel immediately: we are timing the planner, not the
				// streaming.
				d.Cancel()
			}
		}
		return time.Since(begin)
	}
	elapsed := pass()
	warm := pass()
	st := mgr.Stats()
	cst := mgr.PlanCache().Stats()

	// (b) Scheduler overhead: stream under the paper's measured 0.16 ms
	// dispatch cost and account the bookkeeping share of the busy CPU.
	sim2 := simtime.NewSimulator()
	cluster2 := core.TestbedCluster(sim2)
	if _, err := cluster2.LoadCorpus(corpus, replication.DefaultPolicy()); err != nil {
		return nil, err
	}
	node := cluster2.Nodes["srv-a"]
	node.CPU().DispatchOverhead = 160 * time.Microsecond
	mgr2 := core.NewManager(cluster2, core.LRB{})
	req := qos.Requirement{MinResolution: qos.ResDVD, MinFrameRate: 23}
	for i := 0; i < 4; i++ {
		if _, err := mgr2.Service("srv-a", media.VideoID(7), req, core.ServiceOptions{}); err != nil {
			return nil, err
		}
	}
	horizon := simtime.Seconds(60)
	sim2.RunUntil(horizon)
	dispatches := node.CPU().Dispatches()
	overheadTime := simtime.Time(dispatches) * 160 * time.Microsecond

	return &OverheadResult{
		Queries:           queries,
		PlansPerQuery:     float64(st.PlansGenerated) / float64(st.Queries),
		PlanMicrosPerQry:  float64(elapsed.Microseconds()) / float64(queries),
		WarmMicrosPerQry:  float64(warm.Microseconds()) / float64(queries),
		CacheHits:         cst.Hits,
		CacheMisses:       cst.Misses,
		SchedulerOverhead: float64(overheadTime) / float64(horizon),
		DispatchesPerSec:  float64(dispatches) / simtime.ToSeconds(horizon),
	}, nil
}

// FormatOverhead renders the overhead numbers next to the paper's.
func FormatOverhead(r *OverheadResult) string {
	var b strings.Builder
	b.WriteString("QuaSAQ overhead (paper §5.2)\n")
	fmt.Fprintf(&b, "  plans generated per query:      %.1f\n", r.PlansPerQuery)
	fmt.Fprintf(&b, "  planning cost per query (cold): %.0f us (paper: \"a few milliseconds\" on 2002 hardware)\n", r.PlanMicrosPerQry)
	fmt.Fprintf(&b, "  planning cost per query (warm): %.0f us (candidate cache: %d hits, %d misses)\n",
		r.WarmMicrosPerQry, r.CacheHits, r.CacheMisses)
	fmt.Fprintf(&b, "  scheduler dispatches per sec:   %.0f\n", r.DispatchesPerSec)
	fmt.Fprintf(&b, "  scheduler maintenance overhead: %.2f%% of one CPU (paper: 1.6%%, 0.16 ms per 10 ms)\n", 100*r.SchedulerOverhead)
	return b.String()
}
