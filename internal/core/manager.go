package core

import (
	"errors"
	"fmt"

	"quasaq/internal/broker"
	"quasaq/internal/edgecache"
	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/transcode"
	"quasaq/internal/transport"
	"quasaq/internal/vdbms"
)

// Errors returned by the quality manager. Callers branch with errors.Is;
// together with gara.ErrNodeDown and gara.ErrLeaseRevoked these form the
// failure taxonomy of the delivery pipeline.
var (
	// ErrNoPlan reports an empty post-pruning search space: no replica
	// combination can satisfy the requirement at all.
	ErrNoPlan = errors.New("core: no plan satisfies the QoS requirement")
	// ErrRejected reports that every candidate plan failed admission
	// control: the cluster lacks resources right now. The wrapped error
	// chain carries the last per-plan admission failure as the cause.
	ErrRejected = errors.New("core: all plans rejected by admission control")
	// ErrNoViablePlan reports that satisfying plans exist but none can run
	// on the currently-live nodes — the graceful-rejection outcome of
	// mid-stream failover and of querying during an outage.
	ErrNoViablePlan = errors.New("core: no viable plan on live nodes")
	// ErrAsyncControl reports a synchronous Service call against a cluster
	// whose control plane has non-zero latency or loss: a two-phase
	// reservation then spans simulator events and cannot conclude inside
	// one call. Use ServiceAsync.
	ErrAsyncControl = errors.New("core: control plane is asynchronous; use ServiceAsync")
	// ErrQoSUnsatisfiable reports that the query's network QoS clause
	// (delay/jitter/loss/throughput thresholds) cannot be met by any
	// candidate plan's priced network vector — a structural mismatch
	// between the clause and what the plans can deliver, detected at admit
	// time before any reservation is attempted. It always arrives wrapped
	// under ErrRejected, so both errors.Is checks hold.
	ErrQoSUnsatisfiable = errors.New("core: QoS clause unsatisfiable by any candidate plan")
)

// ErrControlTimeout re-exports the control plane's timeout cause: a
// reservation leg's PREPARE or COMMIT starved its retry budget (partition,
// loss). Rejections it causes satisfy both errors.Is(err, ErrRejected) and
// errors.Is(err, ErrControlTimeout).
var ErrControlTimeout = broker.ErrControlTimeout

// Delivery is one admitted, executing query: the chosen plan, its streaming
// session, and the committed leases of the plan's other reservation stages.
// When failover is enabled, Plan and Session are replaced in place on a
// successful mid-stream recovery — the Delivery is the stable handle.
type Delivery struct {
	Plan    *Plan
	Session *transport.Session

	mgr *Manager
	// held is the committed lease set, parallel to Plan.ReservationStages().
	// The live session owns the lease it streams on and its slot is nil
	// here; every other lease is held by the delivery — revoking one fails
	// the session — until releaseHeld returns it, a fault reclaims it, or a
	// split plan's handover passes the tail lease to the tail session.
	held       []*gara.Lease
	handedOver bool // split plans: the tail leg is (or was) the live session
	video      *media.Video
	req        qos.Requirement
	querySite  string
	opts       ServiceOptions

	// Failover state.
	recovering bool
	recoveryEv *simtime.Event
	failedAt   simtime.Time
	failedFrom string
	resumeFrom int
	fpsAtFail  float64
	failCause  error // the fault that killed the most recent session
	failed     bool
	aborted    bool // Cancel was called; in-flight reservations roll back
	err        error

	// Tracing state (nil scopes/spans when tracing is off; all methods on
	// them are nil-safe no-ops).
	trace      *obs.Scope
	streamSpan *obs.Span
	failSpan   *obs.Span
}

// Video returns the delivered logical video.
func (d *Delivery) Video() *media.Video { return d.video }

// Requirement returns the QoS requirement the delivery satisfies.
func (d *Delivery) Requirement() qos.Requirement { return d.req }

// Recovering reports whether the delivery lost its session to a fault and
// the quality manager is still trying to fail it over.
func (d *Delivery) Recovering() bool { return d.recovering }

// Failed reports whether the delivery was abandoned: its session failed
// and no viable plan survived (or failover is disabled).
func (d *Delivery) Failed() bool { return d.failed }

// Trace returns the delivery's trace scope (nil when tracing is off; all
// scope methods are nil-safe no-ops).
func (d *Delivery) Trace() *obs.Scope { return d.trace }

// ServiceOptions returns a copy of the options the delivery was admitted
// with, so a re-plan (guardian renegotiation/migration) inherits the
// original OnDone/OnFailed wiring.
func (d *Delivery) ServiceOptions() ServiceOptions { return d.opts }

// Cancel aborts the delivery and releases every resource, including any
// pending failover attempt. Idempotent.
func (d *Delivery) Cancel() {
	d.aborted = true
	if d.recoveryEv != nil {
		d.mgr.cluster.Sim.Cancel(d.recoveryEv)
		d.recoveryEv = nil
	}
	d.recovering = false
	if !d.Session.Done() {
		d.mgr.cluster.sessionEnded()
	}
	if !d.streamSpan.Ended() {
		d.streamSpan.SetArg("outcome", "cancelled")
		d.streamSpan.End()
		d.trace.Instant("cancel", nil)
	}
	d.Session.Cancel()
	d.releaseHeld()
}

// releaseHeld returns every lease the delivery still holds beside its
// session's own.
func (d *Delivery) releaseHeld() {
	for i, l := range d.held {
		if l != nil {
			l.Release()
			d.held[i] = nil
		}
	}
}

// sessionConfig is the transport configuration of one streaming leg of the
// delivery, starting at frame start: the leg's coded variant, drop strategy
// and per-frame online CPU, under the delivery's service options.
func (d *Delivery) sessionConfig(variant media.Variant, drop transport.DropStrategy,
	extraPerFrameCPU simtime.Time, start int) transport.Config {

	return transport.Config{
		Video:            d.video,
		Variant:          variant,
		Drop:             drop,
		ExtraPerFrameCPU: extraPerFrameCPU,
		TraceFrames:      d.opts.TraceFrames,
		StartFrame:       start,
		Trace:            d.trace,
	}
}

// ManagerStats counts quality-manager outcomes for the throughput figures
// and the chaos experiment's degradation counters.
type ManagerStats struct {
	Queries      uint64
	Admitted     uint64
	Rejected     uint64 // ErrRejected outcomes (Figure 7b's reject count)
	NoPlan       uint64
	NoViablePlan uint64 // ErrNoViablePlan outcomes (all plans on down sites)
	// QoSUnsatisfiable counts rejections whose cause was a network QoS
	// clause no candidate plan could price (a subset of Rejected).
	QoSUnsatisfiable uint64
	PlansGenerated   uint64
	PlansTried       uint64
	Renegotiations   uint64

	// Split-plan counters: admissions that bound a two-leg edge plan, and
	// mid-stream source handovers from the prefix leg to the tail leg.
	SplitAdmissions uint64
	Handovers       uint64

	// Failure/failover counters.
	SessionFailures     uint64 // sessions lost to faults mid-stream
	FailoverAttempts    uint64 // recovery attempts (includes retries)
	Failovers           uint64 // sessions resumed on an alternate plan
	FailoverRetries     uint64 // attempts that ended in a backoff retry
	FailoverRejects     uint64 // deliveries abandoned with ErrNoViablePlan
	BestEffortFallbacks uint64 // deliveries degraded to unreserved streams

	// FramesLostInFailover sums frames the viewers' clocks passed during
	// failover gaps; FailoverLatencyTotal sums failure-to-resume times.
	// Mean failover latency = FailoverLatencyTotal / Failovers.
	FramesLostInFailover float64
	FailoverLatencyTotal simtime.Time
}

// Merge adds another manager's counters into s — the aggregation step when
// replica runs of one experiment fold their statistics together.
func (s *ManagerStats) Merge(o ManagerStats) {
	s.Queries += o.Queries
	s.Admitted += o.Admitted
	s.Rejected += o.Rejected
	s.NoPlan += o.NoPlan
	s.NoViablePlan += o.NoViablePlan
	s.QoSUnsatisfiable += o.QoSUnsatisfiable
	s.PlansGenerated += o.PlansGenerated
	s.PlansTried += o.PlansTried
	s.Renegotiations += o.Renegotiations
	s.SplitAdmissions += o.SplitAdmissions
	s.Handovers += o.Handovers
	s.SessionFailures += o.SessionFailures
	s.FailoverAttempts += o.FailoverAttempts
	s.Failovers += o.Failovers
	s.FailoverRetries += o.FailoverRetries
	s.FailoverRejects += o.FailoverRejects
	s.BestEffortFallbacks += o.BestEffortFallbacks
	s.FramesLostInFailover += o.FramesLostInFailover
	s.FailoverLatencyTotal += o.FailoverLatencyTotal
}

// managerMetrics holds the quality manager's registry-backed counters: the
// single source of truth behind Manager.Stats. Handles are resolved once at
// construction, so the hot path pays one increment per outcome.
type managerMetrics struct {
	queries             *obs.Counter
	admitted            *obs.Counter
	rejected            *obs.Counter
	noPlan              *obs.Counter
	noViablePlan        *obs.Counter
	qosUnsatisfiable    *obs.Counter
	plansGenerated      *obs.Counter
	plansTried          *obs.Counter
	renegotiations      *obs.Counter
	splitAdmissions     *obs.Counter
	handovers           *obs.Counter
	sessionFailures     *obs.Counter
	failoverAttempts    *obs.Counter
	failovers           *obs.Counter
	failoverRetries     *obs.Counter
	failoverRejects     *obs.Counter
	bestEffortFallbacks *obs.Counter
	framesLost          *obs.FloatGauge
	failoverLatency     *obs.Gauge // summed failure->resume time, nanoseconds

	// admissionLatency tracks the sim-time from query arrival to the
	// admission decision (admit or reject), in milliseconds — the control
	// plane's end-to-end cost. Zero under a synchronous control plane.
	admissionLatency *obs.Histogram
}

func newManagerMetrics(reg *obs.Registry) managerMetrics {
	return managerMetrics{
		queries:             reg.Counter("quasaq_queries_total"),
		admitted:            reg.Counter("quasaq_admitted_total"),
		rejected:            reg.Counter("quasaq_rejected_total"),
		noPlan:              reg.Counter("quasaq_no_plan_total"),
		noViablePlan:        reg.Counter("quasaq_no_viable_plan_total"),
		qosUnsatisfiable:    reg.Counter("quasaq_qos_unsatisfiable_total"),
		plansGenerated:      reg.Counter("quasaq_plans_generated_total"),
		plansTried:          reg.Counter("quasaq_plans_tried_total"),
		renegotiations:      reg.Counter("quasaq_renegotiations_total"),
		splitAdmissions:     reg.Counter("quasaq_split_admissions_total"),
		handovers:           reg.Counter("quasaq_handovers_total"),
		sessionFailures:     reg.Counter("quasaq_session_failures_total"),
		failoverAttempts:    reg.Counter("quasaq_failover_attempts_total"),
		failovers:           reg.Counter("quasaq_failovers_total"),
		failoverRetries:     reg.Counter("quasaq_failover_retries_total"),
		failoverRejects:     reg.Counter("quasaq_failover_rejects_total"),
		bestEffortFallbacks: reg.Counter("quasaq_best_effort_fallbacks_total"),
		framesLost:          reg.FloatGauge("quasaq_frames_lost_in_failover"),
		failoverLatency:     reg.Gauge("quasaq_failover_latency_ns_total"),
		admissionLatency: reg.Histogram("quasaq_ctrl_admission_latency_ms",
			[]float64{1, 5, 10, 25, 50, 100, 250, 500, 1000}),
	}
}

// Manager is the Quality Manager of §3.4, reorganized as a staged plan
// pipeline: enumeration (static rules — plan.go), candidate caching
// (topology-epoch keyed — plancache.go), incremental best-first costing
// (bestfirst.go), and admission/execution (admission.go). The recovery
// path (failover.go) reuses the same pipeline from the cached stage down.
type Manager struct {
	cluster *Cluster
	gen     *Generator
	model   CostModel
	cache   *PlanCache
	coord   *broker.Coordinator
	met     managerMetrics

	tracer  *obs.Tracer
	sessSeq int // session ordinal for trace thread naming

	failover   *FailoverPolicy
	onFailover func(FailoverEvent)

	// onAdmit observes every successful admission (the guardian's hook for
	// starting a monitor); aq, when non-nil, bounds concurrent admissions.
	onAdmit func(*Delivery)
	aq      *admissionQueue

	// farm is the shared transcoding tier (nil until EnableFarm): transcode
	// plans stream their GOPs through it, and a non-neutral farm makes the
	// generator emit farm-offloaded stage candidates.
	farm *transcode.Farm

	// edge is the cooperative prefix-cache tier (nil until EnableEdgeTier).
	edge *edgecache.Manager
}

// NewManager wires a quality manager to a cluster with a cost model.
func NewManager(c *Cluster, model CostModel) *Manager {
	m := &Manager{
		cluster: c,
		gen:     NewGenerator(c.Dir, c.Capacity()),
		model:   model,
		cache:   NewPlanCache(c.Dir),
		coord:   broker.NewCoordinator(c.Ctrl, c.Obs),
		met:     newManagerMetrics(c.Obs),
	}
	m.cache.Instrument(c.Obs)
	// Liveness changes (CrashSite/RestoreSite, fault injection — anything
	// that flips a node) stale the candidate cache: the static set itself
	// is liveness-independent, but re-keying on every transition keeps the
	// epoch rule uniform and bounds how long a post-change set survives.
	for _, n := range c.Nodes {
		n.Watch(m.cache.BumpLiveness)
	}
	return m
}

// EnableFarm attaches the elastic transcoding tier to the cluster and
// routes this manager's transcode plans through it. With a *neutral* farm
// (the zero config: one instant class, no startup, no pricing) the plan
// space, admission decisions, and frame timing are byte-identical to the
// pre-farm inline path — only the farm's own counters tick. A non-neutral
// farm additionally makes the generator emit farm-offloaded stage
// candidates, so the cost models can move conversions off congested
// delivery CPUs; call it before serving queries, since it rebuilds the
// generator and re-keys the candidate cache.
func (m *Manager) EnableFarm(cfg transcode.FarmConfig) (*transcode.Farm, error) {
	if m.farm != nil {
		return nil, fmt.Errorf("core: farm already enabled")
	}
	farm, err := m.cluster.EnableFarm(cfg)
	if err != nil {
		return nil, err
	}
	m.farm = farm
	if !farm.Neutral() {
		m.gen.farm = true
		m.cache.BumpLiveness()
	}
	return farm, nil
}

// Farm returns the attached transcoding tier (nil when disabled).
func (m *Manager) Farm() *transcode.Farm { return m.farm }

// EnableEdgeTier provisions the edge proxy-cache sites on the cluster and
// attaches the cooperative prefix-cache manager: popular video prefixes are
// installed at the edges on the cache's clock, the plan generator starts
// emitting edge and split (prefix-from-edge, tail-from-origin) candidates
// as the prefixes appear, and sustained popularity is promoted toward full
// replicas. Call after LoadCorpus and before serving queries — provisioning
// re-keys the candidate cache. One edge tier per manager.
func (m *Manager) EnableEdgeTier(sites []EdgeSite, cfg edgecache.Config) (*edgecache.Manager, error) {
	if m.edge != nil {
		return nil, fmt.Errorf("core: edge tier already enabled")
	}
	if err := m.cluster.EnableEdgeTier(sites); err != nil {
		return nil, err
	}
	ec := edgecache.New(m.cluster.Sim, m.cluster.Dir, m.cluster.Engine.All(), m.cluster.Obs, cfg)
	for _, name := range m.cluster.EdgeSites() {
		st, err := m.cluster.Dir.Store(name)
		if err != nil {
			return nil, err
		}
		ec.AddSite(name, m.cluster.Blobs[name], st)
		// Edge liveness transitions stale the candidate cache like any
		// origin node's.
		m.cluster.Nodes[name].Watch(m.cache.BumpLiveness)
	}
	ec.Start()
	m.edge = ec
	m.cache.BumpLiveness()
	return ec, nil
}

// EdgeCache returns the attached edge prefix-cache manager (nil when the
// edge tier is disabled).
func (m *Manager) EdgeCache() *edgecache.Manager { return m.edge }

// Stats returns a typed view over the metrics registry's quality-manager
// series — the same numbers WriteJSON exports.
func (m *Manager) Stats() ManagerStats {
	return ManagerStats{
		Queries:              m.met.queries.Value(),
		Admitted:             m.met.admitted.Value(),
		Rejected:             m.met.rejected.Value(),
		NoPlan:               m.met.noPlan.Value(),
		NoViablePlan:         m.met.noViablePlan.Value(),
		QoSUnsatisfiable:     m.met.qosUnsatisfiable.Value(),
		PlansGenerated:       m.met.plansGenerated.Value(),
		PlansTried:           m.met.plansTried.Value(),
		Renegotiations:       m.met.renegotiations.Value(),
		SplitAdmissions:      m.met.splitAdmissions.Value(),
		Handovers:            m.met.handovers.Value(),
		SessionFailures:      m.met.sessionFailures.Value(),
		FailoverAttempts:     m.met.failoverAttempts.Value(),
		Failovers:            m.met.failovers.Value(),
		FailoverRetries:      m.met.failoverRetries.Value(),
		FailoverRejects:      m.met.failoverRejects.Value(),
		BestEffortFallbacks:  m.met.bestEffortFallbacks.Value(),
		FramesLostInFailover: m.met.framesLost.Value(),
		FailoverLatencyTotal: simtime.Time(m.met.failoverLatency.Value()),
	}
}

// Registry exposes the cluster-wide metrics registry.
func (m *Manager) Registry() *obs.Registry { return m.cluster.Obs }

// Engine exposes the cluster's content/QoE query engine — the guardian
// persists violation records through it so QoE history is queryable back
// out of the vdbms itself.
func (m *Manager) Engine() *vdbms.Engine { return m.cluster.Engine }

// Sim exposes the cluster's simulator clock.
func (m *Manager) Sim() *simtime.Simulator { return m.cluster.Sim }

// SetAdmissionObserver installs fn to be called with every successfully
// admitted delivery, immediately after its session starts. One observer;
// the QoS guardian uses it to begin monitoring.
func (m *Manager) SetAdmissionObserver(fn func(*Delivery)) { m.onAdmit = fn }

// AbandonDelivery sheds a live delivery administratively with the given
// cause — the guardian's final ladder rung. The session is cancelled, the
// delivery marked failed with cause as its terminal error, and the OnFailed
// hook fired. No-op on an already-failed delivery.
func (m *Manager) AbandonDelivery(d *Delivery, cause error) {
	if d.failed {
		return
	}
	d.Cancel()
	d.failed = true
	d.err = cause
	d.trace.Instant("abandon", map[string]any{"cause": cause.Error()})
	if d.opts.OnFailed != nil {
		d.opts.OnFailed(d, cause)
	}
}

// EnableTracing starts recording per-session pipeline spans on the virtual
// clock. Idempotent; spans accumulate until exported via Tracer.
func (m *Manager) EnableTracing() {
	if m.tracer == nil {
		m.tracer = obs.NewTracer(m.cluster.Sim.Now)
	}
}

// Tracer returns the span recorder (nil until EnableTracing).
func (m *Manager) Tracer() *obs.Tracer { return m.tracer }

// Generator exposes the plan generator (for tests and diagnostics).
func (m *Manager) Generator() *Generator { return m.gen }

// PlanCache exposes the candidate-set cache (for stats and diagnostics).
func (m *Manager) PlanCache() *PlanCache { return m.cache }

// siteDown reports whether a site's node is crashed.
func (m *Manager) siteDown(site string) bool {
	n, ok := m.cluster.Nodes[site]
	return ok && n.Down()
}

// siteUsage adapts Cluster.Usage to the cost models' SiteUsage contract.
// Plans only name sites enumerated from the directory, so an unknown site
// here is a wiring bug — fail loudly instead of feeding zero capacity into
// Eq. 1's division.
func (m *Manager) siteUsage(site string) (usage, capacity qos.ResourceVector) {
	u, cap, err := m.cluster.Usage(site)
	if err != nil {
		panic(err)
	}
	return u, cap
}
