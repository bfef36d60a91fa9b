package main

import (
	"time"

	"quasaq"
	"quasaq/internal/core"
	"quasaq/internal/faults"
	"quasaq/internal/gara"
	"quasaq/internal/guardian"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/vdbms"
)

// system is the slice of the public facade the driver uses. *quasaq.DB
// implements it for the measured reps; tracedWorld implements it over the
// internal handles for the traced rep.
type system interface {
	Sites() []string
	EdgeSites() []string
	Now() quasaq.Time
	Advance(quasaq.Time)
	RunUntilIdle()
	Query(site, sql string) (*quasaq.QueryResult, error)
	Search(sql string) ([]quasaq.SearchResult, error)
	Deliver(site string, id quasaq.VideoID, req quasaq.Requirement) (*quasaq.Delivery, error)
	DeliverAsync(site string, id quasaq.VideoID, req quasaq.Requirement, done func(*quasaq.Delivery, error))
	Stats() quasaq.Stats
	SiteUsage(site string) (usage, capacity quasaq.ResourceVector, err error)
	MetricsSnapshot() []quasaq.MetricSnapshot
	OnGuardianEvent(func(quasaq.GuardianEvent)) error
}

// worldSpec says what to build: a catalogue on the testbed cluster and,
// for tiers-async, every optional tier plus a fault schedule.
type worldSpec struct {
	videos []*quasaq.Video
	tiers  bool
	faults quasaq.FaultSchedule
}

// The tier settings of tiers-async, shared by both world builders.
func tierControl() quasaq.ControlPlaneConfig {
	cfg := quasaq.TestbedControlPlane()
	cfg.Breaker = quasaq.BreakerConfig{Threshold: 3}
	cfg.RetryBudget = quasaq.RetryBudgetConfig{Burst: 20}
	return cfg
}

func tierFarm() quasaq.FarmConfig {
	return quasaq.FarmConfig{
		Classes: []quasaq.WorkerClass{
			{Name: "fast", Speed: 4, Startup: 250 * time.Millisecond, DollarsPerHour: 2.4, MaxWorkers: 4},
			{Name: "econ", Speed: 0.5, Startup: 3 * time.Second, DollarsPerHour: 0.3, MinWorkers: 1, MaxWorkers: 6},
		},
		Autoscale: quasaq.AutoscaleConfig{Interval: 2 * time.Second},
	}
}

var tierEdgeSites = []quasaq.EdgeSite{{Name: "edge-a"}, {Name: "edge-b"}}

func tierEdge() quasaq.EdgeConfig {
	return quasaq.EdgeConfig{MinHits: 2, PrefixGOPs: 12, Interval: 300 * time.Second, ByteBudget: 192 << 20, PromoteHits: 10}
}

var tierQueue = quasaq.AdmissionQueueConfig{MaxInFlight: 12, MaxQueue: 64, Deadline: 2 * time.Second}

func openPublic(spec worldSpec) (*quasaq.DB, error) {
	opts := quasaq.Options{}
	if spec.tiers {
		opts.Control = tierControl()
	}
	db, err := quasaq.Open(opts)
	if err != nil {
		return nil, err
	}
	if _, err := db.AddVideos(spec.videos); err != nil {
		return nil, err
	}
	if !spec.tiers {
		return db, nil
	}
	db.EnableFailover(quasaq.DefaultFailoverPolicy())
	if err := db.EnableTranscodeFarm(tierFarm()); err != nil {
		return nil, err
	}
	if err := db.EnableEdgeTier(tierEdgeSites, tierEdge()); err != nil {
		return nil, err
	}
	if err := db.EnableGuardian(quasaq.GuardianConfig{}); err != nil {
		return nil, err
	}
	if err := db.ConfigureAdmissionQueue(tierQueue); err != nil {
		return nil, err
	}
	return db, db.InjectFaults(spec.faults)
}

// tracedWorld is a world wired from internal/core the way quasaq.Open wires
// it, so the layer handles are reachable. It issues each query as the
// facade does, but stage by stage, with a span around each stage and, on
// sampled queries, read-only probes of the layers below.
type tracedWorld struct {
	sim     *simtime.Simulator
	cluster *core.Cluster
	mgr     *core.Manager
	guard   *guardian.Guardian
	tr      *tracer
	probes  *probeSet
}

func openTraced(spec worldSpec, tr *tracer, probeEvery int) (*tracedWorld, error) {
	sim := simtime.NewSimulator()
	cluster, err := core.NewCluster(sim, testbedSites, gara.DefaultCapacity())
	if err != nil {
		return nil, err
	}
	if spec.tiers {
		if err := cluster.ConfigureControl(tierControl()); err != nil {
			return nil, err
		}
	}
	w := &tracedWorld{sim: sim, cluster: cluster, mgr: core.NewManager(cluster, core.LRB{}), tr: tr}
	w.probes = newProbeSet(w, probeEvery)
	if _, err := cluster.LoadCorpus(spec.videos, replication.DefaultPolicy()); err != nil {
		return nil, err
	}
	if !spec.tiers {
		return w, nil
	}
	w.mgr.EnableFailover(core.DefaultFailoverPolicy())
	if _, err := w.mgr.EnableFarm(tierFarm()); err != nil {
		return nil, err
	}
	ec, err := w.mgr.EnableEdgeTier(tierEdgeSites, tierEdge())
	if err != nil {
		return nil, err
	}
	for i, s := range cluster.Sites() {
		ec.MapClient(s, tierEdgeSites[i%len(tierEdgeSites)].Name)
	}
	if w.guard, err = guardian.New(w.mgr, guardian.Config{}); err != nil {
		return nil, err
	}
	if err := w.mgr.ConfigureAdmissionQueue(tierQueue); err != nil {
		return nil, err
	}
	in := faults.NewInjector(sim)
	for _, site := range cluster.Sites() {
		in.RegisterNode(cluster.Nodes[site])
	}
	return w, in.Apply(spec.faults)
}

func (w *tracedWorld) Sites() []string     { return w.cluster.Sites() }
func (w *tracedWorld) EdgeSites() []string { return w.cluster.EdgeSites() }
func (w *tracedWorld) Now() quasaq.Time    { return w.sim.Now() }
func (w *tracedWorld) RunUntilIdle()       { w.sim.Run() }

func (w *tracedWorld) Advance(d quasaq.Time) { w.sim.RunUntil(w.sim.Now() + d) }

func (w *tracedWorld) content(sql string) ([]quasaq.SearchResult, *vdbms.Query, error) {
	sp := w.tr.begin(spanParse)
	q, err := vdbms.Parse(sql)
	w.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = w.tr.begin(spanExecute)
	res, err := w.cluster.Engine.Execute(q)
	w.tr.end(sp)
	return res, q, err
}

func (w *tracedWorld) Search(sql string) ([]quasaq.SearchResult, error) {
	res, _, err := w.content(sql)
	return res, err
}

func (w *tracedWorld) Query(site, sql string) (*quasaq.QueryResult, error) {
	res, q, err := w.content(sql)
	if err != nil {
		return nil, err
	}
	out := &quasaq.QueryResult{Matches: res}
	if !q.HasQoS || len(res) == 0 {
		return out, nil
	}
	d, err := w.Deliver(site, res[0].Video.ID, q.QoS)
	out.Delivery = d
	return out, err
}

// observe repeats DB.observe: demand is reported to the edge cache.
func (w *tracedWorld) observe(site string, id quasaq.VideoID) {
	if ec := w.mgr.EdgeCache(); ec != nil {
		ec.Observe(site, id)
	}
}

func (w *tracedWorld) Deliver(site string, id quasaq.VideoID, req quasaq.Requirement) (*quasaq.Delivery, error) {
	w.observe(site, id)
	w.probes.run(site, id, req)
	sp := w.tr.begin(spanService)
	d, err := w.mgr.Service(site, id, req, core.ServiceOptions{})
	w.tr.end(sp)
	return d, err
}

func (w *tracedWorld) DeliverAsync(site string, id quasaq.VideoID, req quasaq.Requirement, done func(*quasaq.Delivery, error)) {
	w.observe(site, id)
	w.probes.run(site, id, req)
	sp := w.tr.begin(spanService)
	w.mgr.ServiceAsync(site, id, req, core.ServiceOptions{}, done)
	w.tr.end(sp)
}

func (w *tracedWorld) Stats() quasaq.Stats {
	ms := w.mgr.Stats()
	return quasaq.Stats{
		Queries:     ms.Queries,
		Admitted:    ms.Admitted,
		Rejected:    ms.Rejected,
		Outstanding: w.cluster.OutstandingSessions(),
	}
}

func (w *tracedWorld) SiteUsage(site string) (usage, capacity quasaq.ResourceVector, err error) {
	return w.cluster.Usage(site)
}

func (w *tracedWorld) MetricsSnapshot() []quasaq.MetricSnapshot { return w.cluster.Obs.Snapshot() }

func (w *tracedWorld) OnGuardianEvent(fn func(quasaq.GuardianEvent)) error {
	w.guard.SetObserver(fn)
	return nil
}
