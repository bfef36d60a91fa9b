// Package quasaq is the public API of the QuaSAQ reproduction: a QoS-aware
// distributed multimedia database in the architecture of "QuaSAQ: An
// Approach to Enabling End-to-End QoS for Multimedia Databases" (EDBT
// 2004).
//
// A DB bundles the simulated three-tier substrate (storage manager, content
// engine, CPU schedulers, network links), the offline replication pipeline,
// and the QoS-aware query processor. Queries run in two phases, exactly as
// in the paper: the content phase resolves a (QoS-extended) SQL query to
// logical video objects; the QoS phase enumerates delivery plans over the
// replica/site/drop/transcode/encrypt space, costs them under current
// contention with the Lowest Resource Bucket model, reserves resources
// through the composite QoS API, and streams.
//
// Everything runs on a deterministic virtual clock: Advance moves time,
// sessions progress, and completions fire synchronously. See the examples
// directory for end-to-end usage.
package quasaq

import (
	"errors"
	"fmt"
	"io"

	"quasaq/internal/broker"
	"quasaq/internal/core"
	"quasaq/internal/edgecache"
	"quasaq/internal/faults"
	"quasaq/internal/gara"
	"quasaq/internal/guardian"
	"quasaq/internal/media"
	"quasaq/internal/netsim"
	"quasaq/internal/obs"
	"quasaq/internal/qop"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/transcode"
	"quasaq/internal/transport"
	"quasaq/internal/vdbms"
)

// Re-exported substrate types: the vocabulary of the public API.
type (
	// Video is a logical video object (content identity + temporal
	// structure).
	Video = media.Video
	// VideoID names a logical video.
	VideoID = media.VideoID
	// AppQoS is a quantitative application-QoS tuple.
	AppQoS = qos.AppQoS
	// Requirement is the QoS range component of a QoS-aware query.
	Requirement = qos.Requirement
	// Resolution is a spatial resolution.
	Resolution = qos.Resolution
	// ResourceVector is a per-resource demand/usage/capacity vector.
	ResourceVector = qos.ResourceVector
	// NodeCapacity configures one server's resources.
	NodeCapacity = gara.NodeCapacity
	// QoP is a qualitative user quality request.
	QoP = qop.QoP
	// Profile is a user profile translating QoP to QoS.
	Profile = qop.Profile
	// Plan is one QoS-aware delivery plan.
	Plan = core.Plan
	// Delivery is an admitted, executing delivery.
	Delivery = core.Delivery
	// Session is the underlying streaming session.
	Session = transport.Session
	// CostModel ranks candidate plans under current contention.
	CostModel = core.CostModel
	// FailoverPolicy tunes failure detection and mid-stream recovery.
	FailoverPolicy = core.FailoverPolicy
	// FailoverEvent describes one concluded recovery.
	FailoverEvent = core.FailoverEvent
	// FaultSchedule is an ordered fault-injection plan.
	FaultSchedule = faults.Schedule
	// FaultEvent is one scheduled fault.
	FaultEvent = faults.Event
	// SearchResult is one content-phase match.
	SearchResult = vdbms.Result
	// Time is a virtual timestamp (time.Duration from simulation start).
	Time = simtime.Time
	// MetricSnapshot is one exported metric point from the registry.
	MetricSnapshot = obs.MetricSnapshot
	// ControlPlaneConfig tunes the distributed control plane: inter-site
	// message latency, per-attempt timeout, retry budget, loss, and the
	// prepare TTL bounding orphaned reservations. The zero value is the
	// synchronous direct-call path.
	ControlPlaneConfig = broker.Config
	// BreakerConfig tunes the per-site control-RPC circuit breakers
	// (ControlPlaneConfig.Breaker); the zero value disables them.
	BreakerConfig = broker.BreakerConfig
	// RetryBudgetConfig bounds global control-RPC retry traffic
	// (ControlPlaneConfig.RetryBudget); the zero value disables it.
	RetryBudgetConfig = broker.RetryBudgetConfig
	// AdmissionQueueConfig tunes the deadline-aware admission queue; the
	// zero value disables queueing.
	AdmissionQueueConfig = core.AdmissionQueueConfig
	// GuardianConfig tunes the runtime QoS guardian (sampling window,
	// hysteresis, thresholds, degradation ladder).
	GuardianConfig = guardian.Config
	// GuardianStats is the guardian's counter snapshot.
	GuardianStats = guardian.Stats
	// GuardianRung identifies one degradation-ladder step.
	GuardianRung = guardian.Rung
	// QoSViolation is a declared runtime QoS breach; abandonment errors
	// carry it (errors.As).
	QoSViolation = guardian.Violation
	// GuardianEvent is one guardian action (breach, violation, ladder rung,
	// recovery, save), delivered to the OnGuardianEvent observer.
	GuardianEvent = guardian.Event
	// ObservedQoS is a session's observed-QoS snapshot (delay, jitter,
	// loss), read via Session.Observed (Delivery.Session).
	ObservedQoS = transport.ObservedQoS
	// NetMetric names a network-level QoS metric a WITH QOS clause can
	// bound: delay, jitter, loss, throughput.
	NetMetric = qos.NetMetric
	// NetThreshold is one directional network-metric bound (e.g.
	// "delay <= 40"); Requirement.WithNet AND-composes them.
	NetThreshold = qos.Threshold
	// NetQoS is an observed or priced network-metric vector, judged
	// against a Requirement's net terms via Requirement.Admits.
	NetQoS = qos.NetQoS
	// QoERecord is one row of the qoe history table: a violation or
	// recovery the guardian persisted through the vdbms, read back via
	// DB.QoEQuery.
	QoERecord = vdbms.QoERecord
	// FarmConfig configures the elastic transcoding farm (worker classes
	// plus autoscaler); the zero value is a neutral single-instant-worker
	// farm indistinguishable from inline transcoding.
	FarmConfig = transcode.FarmConfig
	// WorkerClass describes one heterogeneous transcoding worker class
	// (speed, startup latency, dollar price, fleet bounds).
	WorkerClass = transcode.WorkerClass
	// AutoscaleConfig tunes the farm's autoscaler (FarmConfig.Autoscale);
	// the zero value disables scaling.
	AutoscaleConfig = transcode.AutoscaleConfig
	// FarmStats is the transcoding farm's counter snapshot.
	FarmStats = transcode.FarmStats
	// Stage is one stage of a plan (deliver, tail-deliver, source-read,
	// transcode), read via Plan.Stages in reservation order.
	Stage = core.Stage
	// StageKind classifies a plan stage.
	StageKind = core.StageKind
	// EdgeSite describes one proxy-cache site of the edge tier (name,
	// capacity, disk bound).
	EdgeSite = core.EdgeSite
	// EdgeConfig tunes the edge prefix-cache manager: prefix length in GOPs,
	// per-site byte budget, admission cadence, and promotion thresholds. The
	// zero value uses the defaults documented on the fields.
	EdgeConfig = edgecache.Config
	// EdgeStats is the edge tier's counter snapshot (prefix installs,
	// evictions, hits/misses, cooperative neighbor fills, promotions).
	EdgeStats = edgecache.Stats
)

// Stage kinds of a plan.
const (
	StageSource      = core.StageSource
	StageTranscode   = core.StageTranscode
	StageDeliver     = core.StageDeliver
	StageTailDeliver = core.StageTailDeliver
)

// Degradation-ladder rungs for custom GuardianConfig.Ladder values.
const (
	GuardianStepDown    = guardian.RungStepDown
	GuardianRenegotiate = guardian.RungRenegotiate
	GuardianMigrate     = guardian.RungMigrate
	GuardianAbandon     = guardian.RungAbandon
)

// Network metrics a WITH QOS clause can bound, and the two bound
// directions. Delay, jitter, and loss are lower-is-better (NetAtMost);
// throughput is higher-is-better (NetAtLeast).
const (
	NetLoss       = qos.NetLoss
	NetDelay      = qos.NetDelay
	NetJitter     = qos.NetJitter
	NetThroughput = qos.NetThroughput

	NetAtMost  = qos.AtMost
	NetAtLeast = qos.AtLeast
)

// ParseRequirement parses a bare QoS-term list — the text inside WITH QOS
// (...) — into a Requirement, including network-metric terms ("delay <= 40,
// loss <= 0.05, throughput >= 500000"). "any" or "" parse to the
// unconstrained Requirement.
var ParseRequirement = vdbms.ParseRequirement

// TestbedControlPlane returns realistic LAN control-plane parameters (5 ms
// one-way latency, 40 ms timeouts, two retries, 250 ms prepare TTL).
var TestbedControlPlane = broker.TestbedConfig

// Standard resolutions and QoP vocabulary, re-exported for convenience.
var (
	ResQCIF = qos.ResQCIF
	ResVCD  = qos.ResVCD
	ResCIF  = qos.ResCIF
	ResSD   = qos.ResSD
	ResDVD  = qos.ResDVD
)

// Qualitative QoP levels.
const (
	SpatialLow = qop.SpatialLow
	SpatialVCD = qop.SpatialVCD
	SpatialTV  = qop.SpatialTV
	SpatialDVD = qop.SpatialDVD

	TemporalChoppy   = qop.TemporalChoppy
	TemporalStandard = qop.TemporalStandard
	TemporalSmooth   = qop.TemporalSmooth

	ColorGray  = qop.ColorGray
	ColorBasic = qop.ColorBasic
	ColorTrue  = qop.ColorTrue

	SecurityNone     = qos.SecurityNone
	SecurityStandard = qos.SecurityStandard
	SecurityStrong   = qos.SecurityStrong
)

// Fault kinds for building FaultSchedule values directly.
const (
	FaultNodeCrash     = faults.NodeCrash
	FaultNodeRestart   = faults.NodeRestart
	FaultLinkDegrade   = faults.LinkDegrade
	FaultLinkRestore   = faults.LinkRestore
	FaultLinkPartition = faults.LinkPartition
	FaultLinkCongest   = faults.LinkCongest
	FaultLeaseRevoke   = faults.LeaseRevoke
)

// Profile constructors, re-exported.
var (
	// DefaultProfile returns a neutral user profile.
	DefaultProfile = qop.DefaultProfile
	// PhysicianProfile is the intro scenario's demanding profile.
	PhysicianProfile = qop.Physician
	// NurseProfile is the intro scenario's relaxed profile.
	NurseProfile = qop.Nurse
	// StandardCorpus builds the 15-video synthetic corpus of §5.
	StandardCorpus = media.StandardCorpus
)

// Cost models.
var (
	// ModelLRB is the paper's Lowest Resource Bucket model (Eq. 1).
	ModelLRB CostModel = core.LRB{}
	// ModelMinSum is the sum-of-ratios ablation model.
	ModelMinSum CostModel = core.MinSum{}
	// ModelStatic ignores runtime contention (traditional D-DBMS costing).
	ModelStatic CostModel = core.StaticCheapest{}
)

// QoSCatalog returns the QoS parameter taxonomy of the paper's Table 1
// (application/system/network levels).
func QoSCatalog() []qos.CatalogEntry { return qos.Catalog() }

// QoSCatalogEntry is one Table 1 row.
type QoSCatalogEntry = qos.CatalogEntry

// NewRandomModel returns the §5.2 randomized baseline evaluator.
func NewRandomModel(seed int64) CostModel {
	return core.NewRandom(simtime.NewRand(seed))
}

// Options configures Open.
type Options struct {
	// Sites lists server names; default is the paper's three servers.
	Sites []string
	// Capacity is the per-server capacity; default matches the testbed
	// (3200 KB/s outbound, one CPU).
	Capacity NodeCapacity
	// Model is the plan cost model; default LRB.
	Model CostModel
	// SingleCopyReplication disables the quality ladder (ablation).
	SingleCopyReplication bool
	// Control configures the distributed control plane. The zero value is
	// the synchronous path: reservations conclude inside Deliver, exactly
	// as when they were direct calls. Non-zero latency or loss turns
	// cross-site admission into message-passing two-phase reservations;
	// synchronous entry points then return ErrAsyncControl — use
	// DeliverAsync.
	Control ControlPlaneConfig
}

// DB is a QoS-aware multimedia database instance on a virtual clock.
type DB struct {
	sim      *simtime.Simulator
	cluster  *core.Cluster
	manager  *core.Manager
	policy   replication.Policy
	dynamic  *replication.Dynamic
	guardian *guardian.Guardian
}

// Open creates an empty database.
func Open(opts Options) (*DB, error) {
	if len(opts.Sites) == 0 {
		opts.Sites = []string{"srv-a", "srv-b", "srv-c"}
	}
	if opts.Capacity == (NodeCapacity{}) {
		opts.Capacity = gara.DefaultCapacity()
	}
	if opts.Model == nil {
		opts.Model = core.LRB{}
	}
	sim := simtime.NewSimulator()
	cluster, err := core.NewCluster(sim, opts.Sites, opts.Capacity)
	if err != nil {
		return nil, err
	}
	if err := cluster.ConfigureControl(opts.Control); err != nil {
		return nil, err
	}
	pol := replication.DefaultPolicy()
	if opts.SingleCopyReplication {
		pol = replication.SingleCopyPolicy()
	}
	return &DB{
		sim:     sim,
		cluster: cluster,
		manager: core.NewManager(cluster, opts.Model),
		policy:  pol,
	}, nil
}

// AddVideos ingests videos: catalog insertion, content-metadata
// extraction, offline replication across sites, and QoS-profile sampling
// (the offline components of §3.1). It returns the bytes stored.
func (db *DB) AddVideos(videos []*Video) (int64, error) {
	return db.cluster.LoadCorpus(videos, db.policy)
}

// Sites returns the server names.
func (db *DB) Sites() []string { return db.cluster.Sites() }

// Videos returns the catalog.
func (db *DB) Videos() []*Video { return db.cluster.Engine.All() }

// Video resolves a logical OID.
func (db *DB) Video(id VideoID) (*Video, error) { return db.cluster.Engine.Video(id) }

// Now returns the current virtual time.
func (db *DB) Now() Time { return db.sim.Now() }

// Advance runs the virtual clock forward by d, progressing every session.
func (db *DB) Advance(d Time) { db.sim.RunUntil(db.sim.Now() + d) }

// RunUntilIdle drains all pending work (every active session to
// completion).
func (db *DB) RunUntilIdle() { db.sim.Run() }

// Search runs the content phase only: parse and evaluate the query,
// returning matching videos (with similarity distances for SIMILAR TO).
func (db *DB) Search(sql string) ([]SearchResult, error) {
	res, _, err := db.cluster.Engine.ExecuteSQL(sql)
	return res, err
}

// Explain reports the access path and pipeline a query would use, without
// executing it.
func (db *DB) Explain(sql string) (string, error) {
	return db.cluster.Engine.Explain(sql)
}

// Deliver runs the QoS phase for one video: plan, admit, reserve, stream.
func (db *DB) Deliver(site string, id VideoID, req Requirement) (*Delivery, error) {
	db.observe(site, id, req)
	return db.manager.Service(site, id, req, core.ServiceOptions{})
}

// DeliverAsync runs the QoS phase with the admission decision delivered
// through done, after however many control-plane round trips the two-phase
// reservations take (move the clock with Advance/RunUntilIdle). Under the
// default synchronous control plane done fires before DeliverAsync returns.
func (db *DB) DeliverAsync(site string, id VideoID, req Requirement, done func(*Delivery, error)) {
	db.observe(site, id, req)
	db.manager.ServiceAsync(site, id, req, core.ServiceOptions{}, done)
}

// ConfigureControl swaps the control plane's parameters at runtime; the
// zero config restores the synchronous direct-call path.
func (db *DB) ConfigureControl(cfg ControlPlaneConfig) error {
	return db.cluster.ConfigureControl(cfg)
}

func (db *DB) observe(site string, id VideoID, req Requirement) {
	if db.dynamic != nil {
		db.dynamic.Observe(id, req)
	}
	if ec := db.manager.EdgeCache(); ec != nil {
		ec.Observe(site, id)
	}
}

// EnableDynamicReplication starts the online replication manager (§2 item
// 1): demand observed through Deliver/Query drives periodic materialization
// of the hottest missing replica tiers, up to batch new replicas every
// interval. Call after AddVideos.
func (db *DB) EnableDynamicReplication(interval Time, batch int) {
	if db.dynamic != nil {
		return
	}
	sites := make([]replication.Site, 0, len(db.Sites()))
	for _, s := range db.Sites() {
		sites = append(sites, replication.Site{Name: s, Blobs: db.cluster.Blobs[s]})
	}
	db.dynamic = replication.NewDynamic(db.sim, db.cluster.Dir, db.Videos(), sites)
	links := map[string]*netsim.Link{}
	for name, node := range db.cluster.Nodes {
		links[name] = node.Link()
	}
	db.dynamic.SetLinks(links)
	db.dynamic.Start(interval, batch)
	// With an edge tier attached, sustained edge popularity that outgrows a
	// site's cache budget is handed to the replicator as extra demand.
	if ec := db.manager.EdgeCache(); ec != nil {
		ec.SetPromote(db.dynamic.Boost)
	}
}

// DynamicReplicasCreated reports how many replicas the online replicator
// has materialized (zero when disabled).
func (db *DB) DynamicReplicasCreated() int {
	if db.dynamic == nil {
		return 0
	}
	return db.dynamic.Created()
}

// QueryResult is the outcome of a full two-phase query.
type QueryResult struct {
	// Matches are the content-phase results.
	Matches []SearchResult
	// Delivery is the admitted delivery of the best match (nil when the
	// query carried no QoS clause).
	Delivery *Delivery
}

// Query runs both phases: content search, then QoS-constrained delivery of
// the first match when the query carries a WITH QOS clause.
func (db *DB) Query(site string, sql string) (*QueryResult, error) {
	res, q, err := db.cluster.Engine.ExecuteSQL(sql)
	if err != nil {
		return nil, err
	}
	out := &QueryResult{Matches: res}
	if !q.HasQoS || len(res) == 0 {
		return out, nil
	}
	db.observe(site, res[0].Video.ID, q.QoS)
	d, err := db.manager.Service(site, res[0].Video.ID, q.QoS, core.ServiceOptions{})
	if err != nil {
		return out, err
	}
	out.Delivery = d
	return out, nil
}

// ErrExhausted reports that the requested QoP and every second-chance
// alternative were rejected.
var ErrExhausted = errors.New("quasaq: request and all alternatives rejected")

// Failure taxonomy, re-exported for errors.Is checks against Deliver,
// Renegotiate, and Delivery.Err results.
var (
	// ErrNoViablePlan: plans exist but none can run on live nodes (or
	// failover exhausted its budget without finding one).
	ErrNoViablePlan = core.ErrNoViablePlan
	// ErrNodeDown: the target (or query) site is crashed.
	ErrNodeDown = gara.ErrNodeDown
	// ErrLeaseRevoked: a resource lease was revoked by a fault.
	ErrLeaseRevoked = gara.ErrLeaseRevoked
	// ErrRejected: every candidate plan failed admission control; the chain
	// carries the last per-plan cause.
	ErrRejected = core.ErrRejected
	// ErrControlTimeout: a control-plane PREPARE/COMMIT starved its retry
	// budget (partition, loss); found on ErrRejected chains via errors.Is.
	ErrControlTimeout = core.ErrControlTimeout
	// ErrAsyncControl: a synchronous entry point (Deliver, Renegotiate) was
	// called while the control plane has latency or loss; use DeliverAsync
	// or RenegotiateAsync.
	ErrAsyncControl = core.ErrAsyncControl
	// ErrQoSAbandoned: the runtime guardian shed a session after the
	// degradation ladder ran out; the chain carries the violated metric as
	// a *QoSViolation (errors.As).
	ErrQoSAbandoned = guardian.ErrQoSAbandoned
	// ErrQoSUnsatisfiable: no candidate plan's priced network vector could
	// meet the query's WITH QOS network terms; always wrapped under
	// ErrRejected.
	ErrQoSUnsatisfiable = core.ErrQoSUnsatisfiable
	// ErrBrokerOpen: a control call was fast-failed by an open per-site
	// circuit breaker; found on ErrRejected chains via errors.Is.
	ErrBrokerOpen = broker.ErrBrokerOpen
	// ErrAdmissionDeadline: the request expired in the admission queue
	// before any plan was tried.
	ErrAdmissionDeadline = core.ErrAdmissionDeadline
)

// DefaultFailoverPolicy returns the standard heartbeat detector with
// bounded exponential backoff, re-exported from the quality manager.
var DefaultFailoverPolicy = core.DefaultFailoverPolicy

// EnableFailover turns on failure detection and mid-stream recovery: when
// a fault kills an admitted session, the quality manager re-plans on the
// surviving sites and resumes the stream from the last delivered position,
// degrading to best-effort or rejecting with ErrNoViablePlan per policy.
func (db *DB) EnableFailover(p FailoverPolicy) { db.manager.EnableFailover(p) }

// OnFailover registers fn to observe every concluded recovery (success,
// best-effort downgrade, or abandonment).
func (db *DB) OnFailover(fn func(FailoverEvent)) { db.manager.SetFailoverObserver(fn) }

// CrashSite fails a server: all its leases are revoked, its sessions die,
// and its link partitions. Idempotent.
func (db *DB) CrashSite(site string) error {
	n, err := db.cluster.Node(site)
	if err != nil {
		return err
	}
	n.Fail()
	return nil
}

// RestoreSite brings a crashed server (and its link) back. Idempotent.
func (db *DB) RestoreSite(site string) error {
	n, err := db.cluster.Node(site)
	if err != nil {
		return err
	}
	n.Restore()
	return nil
}

// SiteDown reports whether a server is crashed.
func (db *DB) SiteDown(site string) bool {
	n, err := db.cluster.Node(site)
	return err == nil && n.Down()
}

// InjectFaults arms a fault schedule against the database's sites on the
// virtual clock; the faults fire as Advance/RunUntilIdle move time.
func (db *DB) InjectFaults(s FaultSchedule) error {
	in := faults.NewInjector(db.sim)
	for _, site := range db.Sites() {
		in.RegisterNode(db.cluster.Nodes[site])
	}
	return in.Apply(s)
}

// ParseFaultSchedule reads the fault-schedule text format (see the
// internal/faults package comment: one "offset kind target [arg]" line per
// event).
func ParseFaultSchedule(text string) (FaultSchedule, error) {
	return faults.ParseSchedule(text)
}

// DeliverQoP translates the user's qualitative QoP through their profile
// and delivers. On admission rejection it walks the profile's degradation
// order through up to maxAlternatives weaker requirements — the paper's
// "second chance" renegotiation path (§3.2). It returns the delivery and
// the requirement that was finally admitted.
func (db *DB) DeliverQoP(site string, prof *Profile, q QoP, id VideoID, maxAlternatives int) (*Delivery, Requirement, error) {
	req := prof.Translate(q)
	d, err := db.Deliver(site, id, req)
	if err == nil {
		return d, req, nil
	}
	if !errors.Is(err, core.ErrRejected) && !errors.Is(err, core.ErrNoPlan) {
		return nil, req, err
	}
	for _, alt := range prof.Alternatives(q, maxAlternatives) {
		if d, aerr := db.Deliver(site, id, alt); aerr == nil {
			return d, alt, nil
		}
	}
	return nil, req, fmt.Errorf("%w: %v", ErrExhausted, err)
}

// Renegotiate re-plans a live delivery under a new requirement (user QoP
// change during playback, §3.2). Like Deliver, it requires the synchronous
// control plane and returns ErrAsyncControl otherwise — use
// RenegotiateAsync.
func (db *DB) Renegotiate(d *Delivery, req Requirement) (*Delivery, error) {
	return db.manager.Renegotiate(d, req, core.ServiceOptions{})
}

// RenegotiateAsync is Renegotiate in continuation-passing form: done fires
// exactly once with the re-planned delivery (or the restored original
// alongside the upgrade error, or nil when both failed), after however many
// control-plane round trips the reservations take.
func (db *DB) RenegotiateAsync(d *Delivery, req Requirement, done func(*Delivery, error)) {
	db.manager.RenegotiateAsync(d, req, core.ServiceOptions{}, done)
}

// EnableGuardian starts the runtime QoS guardian: every delivery admitted
// from now on is sampled against its admitted requirement on the virtual
// clock — the query's own WITH QOS network terms when present, the config's
// relative thresholds otherwise — and sustained violations walk the graceful
// degradation ladder (step-down, renegotiate, migrate, abandon with
// ErrQoSAbandoned). Every declared violation and recovery is also persisted
// to the database's qoe table (see QoEQuery). Pass the zero GuardianConfig
// for defaults. Errors if already enabled.
func (db *DB) EnableGuardian(cfg GuardianConfig) error {
	if db.guardian != nil {
		return errors.New("quasaq: guardian already enabled")
	}
	g, err := guardian.New(db.manager, cfg)
	if err != nil {
		return err
	}
	db.guardian = g
	return nil
}

// OnGuardianEvent installs fn to receive every guardian event — window
// breaches, declared violations, ladder rungs firing, recoveries, and
// saves. Call after EnableGuardian; nil disables.
func (db *DB) OnGuardianEvent(fn func(GuardianEvent)) error {
	if db.guardian == nil {
		return errors.New("quasaq: guardian not enabled")
	}
	db.guardian.SetObserver(fn)
	return nil
}

// GuardianStats returns the guardian's counters (zero value when
// EnableGuardian was never called).
func (db *DB) GuardianStats() GuardianStats {
	if db.guardian == nil {
		return GuardianStats{}
	}
	return db.guardian.Stats()
}

// QoEQuery reads the database's own QoE history — the qoe table the
// guardian appends a row to on every declared violation and recovery —
// with the same SQL surface as Search:
//
//	SELECT * FROM qoe WHERE metric = 'loss' AND kind = 'violation'
//	SELECT * FROM qoe WHERE session = 3 AND time >= 40 LIMIT 10
//
// Fields: session, video, site, metric, kind, counter, min, max, avg, peak
// (0/1), time (seconds). Rows come back ordered by (time, session,
// counter). Time-bounded predicates use the qoe time index.
func (db *DB) QoEQuery(sql string) ([]QoERecord, error) {
	recs, _, err := db.cluster.Engine.QoESQL(sql)
	return recs, err
}

// QoECount returns the number of rows in the qoe history table.
func (db *DB) QoECount() int { return db.cluster.Engine.QoECount() }

// EnableTranscodeFarm attaches the elastic transcoding tier: a pool of
// heterogeneous worker classes converting GOPs just-in-time ahead of each
// stream's play point, fronted by a farm pseudo-site so offloaded transcode
// stages reserve against the fleet's capacity envelope through the same
// two-phase protocol as any site. Non-neutral farms extend the plan space
// with farm-offloaded candidates; the zero FarmConfig is a neutral farm
// whose behaviour is indistinguishable from inline transcoding. Call before
// issuing queries; errors if already enabled.
func (db *DB) EnableTranscodeFarm(cfg FarmConfig) error {
	_, err := db.manager.EnableFarm(cfg)
	return err
}

// TranscodeStats returns the farm's counter snapshot (zero value when
// EnableTranscodeFarm was never called).
func (db *DB) TranscodeStats() FarmStats {
	f := db.manager.Farm()
	if f == nil {
		return FarmStats{}
	}
	return f.Stats()
}

// EnableEdgeTier provisions cooperative edge proxy-cache sites between the
// origin servers and the clients: each edge holds popularity-driven video
// *prefixes* under a byte budget, the plan generator adds edge and split
// (prefix-from-edge, tail-from-origin) delivery candidates as prefixes
// appear, admitted split plans reserve both legs all-or-nothing and hand the
// stream over at the GOP-aligned split frame, and sustained popularity
// promotes prefixes toward full replicas (in place, or via the dynamic
// replicator when enabled). Each query site is assigned a home edge
// round-robin over the given sites. Call after AddVideos and before issuing
// queries; errors if already enabled. A database that never calls this
// behaves byte-identically to one without an edge tier.
func (db *DB) EnableEdgeTier(sites []EdgeSite, cfg EdgeConfig) error {
	ec, err := db.manager.EnableEdgeTier(sites, cfg)
	if err != nil {
		return err
	}
	for i, s := range db.Sites() {
		ec.MapClient(s, sites[i%len(sites)].Name)
	}
	if db.dynamic != nil {
		ec.SetPromote(db.dynamic.Boost)
	}
	return nil
}

// EdgeSites returns the names of the enabled edge proxy sites in
// configuration order (empty without an edge tier).
func (db *DB) EdgeSites() []string { return db.cluster.EdgeSites() }

// EdgeStats returns the edge tier's counter snapshot (zero value when
// EnableEdgeTier was never called).
func (db *DB) EdgeStats() EdgeStats {
	ec := db.manager.EdgeCache()
	if ec == nil {
		return EdgeStats{}
	}
	return ec.Stats()
}

// ConfigureAdmissionQueue installs (or removes, with the zero config) the
// deadline-aware admission queue: at most MaxInFlight admissions run their
// plan pipeline concurrently, at most MaxQueue wait (oldest displaced), and
// waiters expire with ErrAdmissionDeadline after Deadline.
func (db *DB) ConfigureAdmissionQueue(cfg AdmissionQueueConfig) error {
	return db.manager.ConfigureAdmissionQueue(cfg)
}

// Stats reports quality-manager outcome counters.
type Stats struct {
	Queries        uint64
	Admitted       uint64
	Rejected       uint64
	NoPlan         uint64
	NoViablePlan   uint64
	PlansGenerated uint64
	Renegotiations uint64
	Outstanding    int

	// Plan-candidate cache counters: warm queries and failover retries are
	// served from memoized candidate sets; invalidations count entries
	// staled by topology or liveness epoch changes.
	PlanCacheHits          uint64
	PlanCacheMisses        uint64
	PlanCacheInvalidations uint64

	// Failure/failover counters (zero unless EnableFailover was called and
	// faults occurred).
	SessionFailures      uint64
	Failovers            uint64
	BestEffortFallbacks  uint64
	FailoverRejects      uint64
	FramesLostInFailover float64
	FailoverLatencyTotal Time
}

// Stats returns current counters.
func (db *DB) Stats() Stats {
	ms := db.manager.Stats()
	cs := db.manager.PlanCache().Stats()
	return Stats{
		Queries:        ms.Queries,
		Admitted:       ms.Admitted,
		Rejected:       ms.Rejected,
		NoPlan:         ms.NoPlan,
		NoViablePlan:   ms.NoViablePlan,
		PlansGenerated: ms.PlansGenerated,
		Renegotiations: ms.Renegotiations,
		Outstanding:    db.cluster.OutstandingSessions(),

		PlanCacheHits:          cs.Hits,
		PlanCacheMisses:        cs.Misses,
		PlanCacheInvalidations: cs.Invalidations,

		SessionFailures:      ms.SessionFailures,
		Failovers:            ms.Failovers,
		BestEffortFallbacks:  ms.BestEffortFallbacks,
		FailoverRejects:      ms.FailoverRejects,
		FramesLostInFailover: ms.FramesLostInFailover,
		FailoverLatencyTotal: ms.FailoverLatencyTotal,
	}
}

// SiteUsage returns a site's current usage and capacity vectors — the LRB
// bucket fillings, for observability. Unknown sites return an error rather
// than zero vectors.
func (db *DB) SiteUsage(site string) (usage, capacity ResourceVector, err error) {
	return db.cluster.Usage(site)
}

// EnableTracing starts recording per-session pipeline spans (content
// lookup, plan enumeration, costing, reservation, streaming, GOP progress,
// failover, teardown) on the virtual clock. Idempotent; spans accumulate
// until exported with TraceExport.
func (db *DB) EnableTracing() { db.manager.EnableTracing() }

// TraceExport writes every recorded span as Chrome trace_event JSON — load
// the output in chrome://tracing or ui.perfetto.dev. Errors unless
// EnableTracing was called.
func (db *DB) TraceExport(w io.Writer) error { return db.manager.Tracer().WriteJSON(w) }

// TraceEventCount returns the number of trace events recorded so far (zero
// when tracing is off).
func (db *DB) TraceEventCount() int { return db.manager.Tracer().Len() }

// MetricsSnapshot returns every registry series (quality manager, plan
// cache, per-site gara/netsim/cpusched/transport counters) as one sorted
// export — the superset DB.Stats is a typed view of.
func (db *DB) MetricsSnapshot() []MetricSnapshot { return db.cluster.Obs.Snapshot() }

// WriteMetricsJSON exports the full metrics registry as indented JSON.
func (db *DB) WriteMetricsJSON(w io.Writer) error { return db.cluster.Obs.WriteJSON(w) }
