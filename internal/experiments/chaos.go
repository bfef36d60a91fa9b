package experiments

import (
	"fmt"
	"strings"

	"quasaq/internal/core"
	"quasaq/internal/faults"
	"quasaq/internal/media"
	"quasaq/internal/obs"
	"quasaq/internal/replication"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/workload"
)

// The chaos experiment stresses the delivery pipeline with a deterministic
// fault schedule: nodes crash and restart, links degrade and partition,
// while the paper's workload keeps arriving. With failover enabled the
// quality manager should resume interrupted streams on alternate replicas;
// the experiment measures how well it does — failover latency, frames lost
// during the gap, and the reject rate under faults.

// ChaosConfig parameterizes a chaos run.
type ChaosConfig struct {
	Seed     int64
	Horizon  simtime.Time
	Schedule faults.Schedule
	Policy   core.FailoverPolicy
	// Trace records per-session pipeline spans; export the result's Trace
	// as Chrome trace_event JSON to see admissions, streams, and failovers
	// on one timeline.
	Trace bool
}

// DefaultChaosConfig crashes one replica site mid-run (restarting it
// later) and transiently degrades another site's link, under the default
// heartbeat-and-backoff failover policy with best-effort fallback.
func DefaultChaosConfig() ChaosConfig {
	pol := core.DefaultFailoverPolicy()
	pol.BestEffortFallback = true
	return ChaosConfig{
		Seed:     29,
		Horizon:  simtime.Seconds(600),
		Schedule: DefaultChaosSchedule(),
		Policy:   pol,
	}
}

// DefaultChaosSchedule is the canonical fault plan: srv-b crashes at 120 s
// and returns at 300 s; srv-a's link runs at half capacity between 150 s
// and 250 s; srv-c suffers a brief partition at 400 s.
func DefaultChaosSchedule() faults.Schedule {
	return faults.Schedule{
		{At: simtime.Seconds(120), Kind: faults.NodeCrash, Target: "srv-b"},
		{At: simtime.Seconds(150), Kind: faults.LinkDegrade, Target: "srv-a", Factor: 0.5},
		{At: simtime.Seconds(250), Kind: faults.LinkRestore, Target: "srv-a"},
		{At: simtime.Seconds(300), Kind: faults.NodeRestart, Target: "srv-b"},
		{At: simtime.Seconds(400), Kind: faults.LinkPartition, Target: "srv-c"},
		{At: simtime.Seconds(420), Kind: faults.LinkRestore, Target: "srv-c"},
	}
}

// ChaosResult aggregates one chaos run.
type ChaosResult struct {
	Queries   int
	Admitted  int
	Rejected  int
	Completed int // finished cleanly (including resumed-after-failover)
	QoSOK     int
	Abandoned int // admitted but lost to faults beyond recovery

	Stats    core.ManagerStats
	Events   []core.FailoverEvent // concluded recoveries, in sim order (replica 0's)
	FaultLog []faults.Record      // what the injector actually applied (replica 0's)
	Trace    *obs.Tracer          // non-nil when ChaosConfig.Trace was set (replica 0's)
	Metrics  *obs.Registry        // cluster-wide metrics, folded across replicas

	// Replicas counts merged replica runs (0 or 1 means a single run).
	Replicas int
}

// Merge folds another replica's chaos run into r: outcome counters,
// manager statistics, and the metrics registries add up, while the event
// log, fault log, and trace stay replica 0's — every replica applies the
// identical fault schedule, so one canonical incident log suffices.
func (r *ChaosResult) Merge(o *ChaosResult) {
	r.Queries += o.Queries
	r.Admitted += o.Admitted
	r.Rejected += o.Rejected
	r.Completed += o.Completed
	r.QoSOK += o.QoSOK
	r.Abandoned += o.Abandoned
	r.Stats.Merge(o.Stats)
	if err := r.Metrics.Merge(o.Metrics); err != nil {
		// Replicas run identical configs, so their registries always share
		// one metric layout; a mismatch is a programming error.
		panic(fmt.Sprintf("experiments: chaos replica metrics merge: %v", err))
	}
	if r.Replicas < 1 {
		r.Replicas = 1
	}
	if o.Replicas < 1 {
		r.Replicas++
	} else {
		r.Replicas += o.Replicas
	}
}

// MeanFailoverLatencySeconds is the average failure-to-resume time over
// successful failovers.
func (r *ChaosResult) MeanFailoverLatencySeconds() float64 {
	if r.Stats.Failovers == 0 {
		return 0
	}
	return simtime.ToSeconds(r.Stats.FailoverLatencyTotal) / float64(r.Stats.Failovers)
}

// RejectRate is rejected queries over all queries.
func (r *ChaosResult) RejectRate() float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(r.Queries)
}

// RunChaos runs the fault-injection experiment as a single point; the sweep
// dimension is the replicas, each driving the same fault schedule with an
// independently seeded workload. Counters and metric registries fold across
// replicas while the event log stays replica 0's.
func RunChaos(cfg ChaosConfig, opts runner.Options) (*ChaosResult, error) {
	opts.Seed = cfg.Seed
	res, err := runner.Sweep("chaos", []string{"chaos"}, opts, func(_ int, seed int64) (*ChaosResult, error) {
		c := cfg
		c.Seed = seed
		return runChaosOnce(c)
	})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// runChaosOnce drives the paper's workload against the testbed while the
// fault schedule fires, with mid-stream failover enabled. Same config ->
// same result: the workload, the schedule, and recovery are all
// deterministic.
func runChaosOnce(cfg ChaosConfig) (*ChaosResult, error) {
	if err := cfg.Schedule.Validate(); err != nil {
		return nil, err
	}
	sim := simtime.NewSimulator()
	cluster := core.TestbedCluster(sim)
	corpus := media.StandardCorpus(uint64(cfg.Seed))
	if _, err := cluster.LoadCorpus(corpus, replication.DefaultPolicy()); err != nil {
		return nil, err
	}

	res := &ChaosResult{}
	mgr := core.NewManager(cluster, core.LRB{})
	if cfg.Trace {
		mgr.EnableTracing()
	}
	mgr.EnableFailover(cfg.Policy)
	mgr.SetFailoverObserver(func(ev core.FailoverEvent) {
		res.Events = append(res.Events, ev)
	})

	in := faults.NewInjector(sim)
	for _, site := range cluster.Sites() {
		in.RegisterNode(cluster.Nodes[site])
	}
	if err := in.Apply(cfg.Schedule); err != nil {
		return nil, err
	}

	gen := paperWorkload(cfg.Seed, cluster, corpus)
	gen.Drive(sim, cfg.Horizon, func(r workload.Request) {
		res.Queries++
		if _, err := mgr.Service(r.Site, r.Video, r.Req, core.ServiceOptions{
			OnDone: func(d *core.Delivery) {
				res.Completed++
				if d.Session.QoSOK() {
					res.QoSOK++
				}
			},
			OnFailed: func(*core.Delivery, error) { res.Abandoned++ },
		}); err != nil {
			res.Rejected++
		} else {
			res.Admitted++
		}
	})
	sim.RunUntil(cfg.Horizon)

	res.Stats = mgr.Stats()
	res.FaultLog = in.Log()
	res.Trace = mgr.Tracer()
	res.Metrics = mgr.Registry()
	return res, nil
}

// FormatChaos renders the run the way an operator would read an incident
// report: what broke, what recovered, and what it cost.
func FormatChaos(r *ChaosResult) string {
	var b strings.Builder
	b.WriteString("Chaos: workload under fault injection with mid-stream failover\n\n")
	b.WriteString("Faults applied:\n")
	for _, rec := range r.FaultLog {
		status := "applied"
		if !rec.Applied {
			status = "no-op"
		}
		fmt.Fprintf(&b, "  %-40s %s\n", rec.Event.String(), status)
	}
	if r.Replicas > 1 {
		fmt.Fprintf(&b, "\nTotals over %d replicas (event log below is replica 0's):\n", r.Replicas)
	}
	fmt.Fprintf(&b, "\nQueries %d  admitted %d  rejected %d (%.1f%%)  completed %d  QoS-OK %d  abandoned %d\n",
		r.Queries, r.Admitted, r.Rejected, 100*r.RejectRate(), r.Completed, r.QoSOK, r.Abandoned)
	s := r.Stats
	fmt.Fprintf(&b, "Session failures %d  failover attempts %d  failovers %d  retries %d  best-effort %d  rejects %d\n",
		s.SessionFailures, s.FailoverAttempts, s.Failovers, s.FailoverRetries, s.BestEffortFallbacks, s.FailoverRejects)
	fmt.Fprintf(&b, "Mean failover latency %.3f s  frames lost in failover %.1f\n",
		r.MeanFailoverLatencySeconds(), s.FramesLostInFailover)
	if len(r.Events) > 0 {
		b.WriteString("\nRecoveries:\n")
		fmt.Fprintf(&b, "  %8s %6s %-8s %-8s %10s %8s %8s %s\n",
			"t(s)", "video", "from", "to", "latency(s)", "frames", "attempts", "outcome")
		for _, ev := range r.Events {
			fmt.Fprintf(&b, "  %8.2f %6d %-8s %-8s %10.3f %8.1f %8d %s\n",
				simtime.ToSeconds(ev.At), ev.Video, ev.FromSite, orDash(ev.ToSite),
				simtime.ToSeconds(ev.Latency), ev.Frames, ev.Attempts, outcomeOf(ev))
		}
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func outcomeOf(ev core.FailoverEvent) string {
	switch {
	case ev.Err != nil:
		return "abandoned"
	case ev.Degraded:
		return "best-effort"
	default:
		return "resumed"
	}
}
