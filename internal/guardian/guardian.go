// Package guardian is the runtime half of QuaSAQ's end-to-end QoS
// contract. Admission control (internal/core) proves a plan fits at admit
// time; the guardian keeps the promise afterwards: it samples every live
// session's observed metrics — delivered frame delay, jitter, and loss/shed
// rate from the transport's playout accounting — on the sim clock, declares
// a violation only after K consecutive breaching windows (hysteresis, so a
// single bad GOP never triggers surgery), and then walks a graceful
// degradation ladder:
//
//  1. step-down — harshen the frame-dropping strategy on the existing plan
//     (cheapest: no control traffic at all);
//  2. renegotiate — re-admit the video under a strictly cheaper requirement,
//     the paper's §3.2 renegotiation as a runtime mechanism;
//  3. migrate — re-admit at the original requirement away from the current
//     delivery site, reusing the failover machinery's re-plan/resume path;
//  4. abandon — shed the session with a typed ErrQoSAbandoned carrying the
//     violated metric (errors.As(*Violation)).
//
// Rung state survives re-plans: the monitor follows the delivery returned
// by renegotiation, so a session that keeps breaching escalates rather than
// loops. A session that runs clean for ClearWindows consecutive windows
// (the congestion receded, or a rung worked) resets to the bottom of the
// ladder. Every rung emits quasaq_guardian_* metrics and trace instants.
//
// Thresholds come from the session's own QoS clause when it carries
// network-metric terms (WITH QOS delay/jitter/loss/throughput): the clause
// the admission gate proved satisfiable is the contract the guardian
// enforces. Sessions without net terms fall back to the Config-relative
// thresholds, bit for bit as before the clause existed. Every declared
// violation and recovery is additionally persisted as a QoE history row
// through the vdbms engine (the paper's qoe_errors relation), so SLA
// analysis is a SELECT over the qoe table rather than a log grep.
package guardian

import (
	"errors"
	"fmt"

	"quasaq/internal/core"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
	"quasaq/internal/vdbms"
)

// ErrQoSAbandoned reports a session shed by the guardian after the
// degradation ladder ran out: the QoS clause could not be kept at any
// acceptable quality. The delivery's terminal error (the OnFailed hook's
// argument, and what a later Renegotiate of it wraps) carries it with the
// violated metric identifiable via errors.As(&*Violation).
var ErrQoSAbandoned = errors.New("guardian: session abandoned after unrecoverable QoS violation")

// Metric names the observed dimension a violation breached.
type Metric int

// The monitored dimensions, checked in this priority order within a window.
// The ordering mirrors qos.NetMetrics (loss, delay, jitter, throughput) so
// the two enums convert by value.
const (
	MetricLoss Metric = iota
	MetricDelay
	MetricJitter
	MetricThroughput

	numMetrics = 4
)

// metricOf maps a clause metric to the guardian's Metric; the enums share
// ordering by construction.
func metricOf(m qos.NetMetric) Metric { return Metric(int(m)) }

// String names the metric in errors, traces, and CSV columns.
func (m Metric) String() string {
	switch m {
	case MetricLoss:
		return "loss"
	case MetricDelay:
		return "delay"
	case MetricJitter:
		return "jitter"
	case MetricThroughput:
		return "throughput"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Violation is a declared QoS breach: which metric, what was observed over
// the breaching windows, and the threshold it crossed. It is an error so
// abandonment causes can carry it in the chain (errors.As).
type Violation struct {
	Metric    Metric
	Observed  float64 // window value that breached (fraction for loss, ms otherwise)
	Threshold float64 // the limit it crossed
	Windows   int     // consecutive breaching windows at declaration
	Site      string  // delivery site at declaration
	Video     string  // video title
}

// Error renders the violation for the abandonment error chain.
func (v *Violation) Error() string {
	return fmt.Sprintf("guardian: %s violation on %s@%s: observed %.4g, limit %.4g over %d windows",
		v.Metric, v.Video, v.Site, v.Observed, v.Threshold, v.Windows)
}

// Rung identifies a ladder step.
type Rung int

// The ladder rungs, in default escalation order.
const (
	RungStepDown Rung = iota
	RungRenegotiate
	RungMigrate
	RungAbandon
)

// String names the rung in metrics labels and events.
func (r Rung) String() string {
	switch r {
	case RungStepDown:
		return "stepdown"
	case RungRenegotiate:
		return "renegotiate"
	case RungMigrate:
		return "migrate"
	case RungAbandon:
		return "abandon"
	default:
		return fmt.Sprintf("Rung(%d)", int(r))
	}
}

// Config tunes the guardian. The zero value takes every default.
type Config struct {
	// Interval is the sampling window length. Default 2 s.
	Interval simtime.Time
	// BreachWindows is K: consecutive breaching windows before a violation
	// is declared and a rung fires. Default 3.
	BreachWindows int
	// ClearWindows is the consecutive clean windows after which the ladder
	// resets to its bottom rung (the condition recovered). Default 2.
	ClearWindows int
	// DelayFactor bounds the window's mean inter-frame delay at
	// DelayFactor × the ideal delay (transport.QoSOK uses 1.25). Default 1.25.
	DelayFactor float64
	// JitterFactor bounds the window's mean |delay − ideal| at
	// JitterFactor × the ideal delay. Default 1.0.
	JitterFactor float64
	// MaxLoss bounds the window's lost+shed fraction. Default 0.05.
	MaxLoss float64
	// MinSamples is the minimum frames offered in a window for it to count
	// at all (thin windows carry no signal). Default 6.
	MinSamples int
	// Ladder overrides the escalation order. Default
	// [StepDown, Renegotiate, Migrate, Abandon].
	Ladder []Rung
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = simtime.Seconds(2)
	}
	if c.BreachWindows <= 0 {
		c.BreachWindows = 3
	}
	if c.ClearWindows <= 0 {
		c.ClearWindows = 2
	}
	if c.DelayFactor <= 0 {
		c.DelayFactor = 1.25
	}
	if c.JitterFactor <= 0 {
		c.JitterFactor = 1.0
	}
	if c.MaxLoss <= 0 {
		c.MaxLoss = 0.05
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 6
	}
	if len(c.Ladder) == 0 {
		c.Ladder = []Rung{RungStepDown, RungRenegotiate, RungMigrate, RungAbandon}
	}
	return c
}

// Validate rejects configs the guardian cannot run.
func (c Config) Validate() error {
	if c.Interval < 0 || c.BreachWindows < 0 || c.ClearWindows < 0 || c.MinSamples < 0 {
		return fmt.Errorf("guardian: negative parameter in config %+v", c)
	}
	if c.DelayFactor < 0 || c.JitterFactor < 0 || c.MaxLoss < 0 || c.MaxLoss > 1 {
		return fmt.Errorf("guardian: threshold out of range in config %+v", c)
	}
	for _, r := range c.Ladder {
		if r < RungStepDown || r > RungAbandon {
			return fmt.Errorf("guardian: unknown ladder rung %d", int(r))
		}
	}
	return nil
}

// Event is one guardian action, delivered to the observer SetObserver
// installs: a window breach, a declared violation, a rung firing, a
// recovery, or a save (violated session that still completed).
type Event struct {
	Kind     string // "breach", "violation", "recovered", "saved", or a Rung name
	Delivery *core.Delivery
}

// Stats is the guardian's counter snapshot.
type Stats struct {
	Watched          uint64 // monitors created (re-plans create a new one)
	Windows          uint64 // sampling windows evaluated
	Breaches         uint64 // windows that breached a threshold
	Violations       uint64 // K-consecutive-window violations declared
	ViolatedSessions uint64 // distinct deliveries that ever violated
	StepDowns        uint64 // rung-1 firings
	Renegotiates     uint64 // rung-2 firings
	Migrations       uint64 // rung-3 firings
	Abandons         uint64 // rung-4 firings (sessions shed)
	ReplanFailures   uint64 // renegotiate/migrate attempts that lost the delivery
	SavedStepDown    uint64 // violated sessions completing after rung 1
	SavedRenegotiate uint64 // … after rung 2
	SavedMigrate     uint64 // … after rung 3

	LossViolations       uint64 // declared violations caused by loss
	DelayViolations      uint64 // … by mean inter-frame delay
	JitterViolations     uint64 // … by jitter
	ThroughputViolations uint64 // … by a clause throughput floor
	QoERecords           uint64 // QoE history rows appended through the vdbms
}

// Saved returns violated sessions rescued by rungs 1–3 (completed without
// abandonment after the guardian acted).
func (s Stats) Saved() uint64 { return s.SavedStepDown + s.SavedRenegotiate + s.SavedMigrate }

// guardianMetrics are the quasaq_guardian_* registry series.
type guardianMetrics struct {
	watched          *obs.Counter
	windows          *obs.Counter
	breaches         *obs.Counter
	violations       *obs.Counter
	violatedSessions *obs.Counter
	rungs            [4]*obs.Counter // indexed by Rung
	replanFailures   *obs.Counter
	saved            [3]*obs.Counter          // indexed by Rung (abandon never saves)
	metricViolations [numMetrics]*obs.Counter // indexed by Metric
	qoeRecords       *obs.Counter
}

func newGuardianMetrics(reg *obs.Registry) guardianMetrics {
	m := guardianMetrics{
		watched:          reg.Counter("quasaq_guardian_watched_total"),
		windows:          reg.Counter("quasaq_guardian_windows_total"),
		breaches:         reg.Counter("quasaq_guardian_breaches_total"),
		violations:       reg.Counter("quasaq_guardian_violations_total"),
		violatedSessions: reg.Counter("quasaq_guardian_violated_sessions_total"),
		replanFailures:   reg.Counter("quasaq_guardian_replan_failures_total"),
	}
	for r := RungStepDown; r <= RungAbandon; r++ {
		m.rungs[r] = reg.Counter("quasaq_guardian_rung_total", "rung", r.String())
	}
	for r := RungStepDown; r <= RungMigrate; r++ {
		m.saved[r] = reg.Counter("quasaq_guardian_saved_total", "rung", r.String())
	}
	for _, nm := range qos.NetMetrics {
		m.metricViolations[metricOf(nm)] =
			reg.Counter("quasaq_guardian_metric_violations_total", "metric", nm.String())
	}
	m.qoeRecords = reg.Counter("quasaq_guardian_qoe_records_total")
	return m
}

// QoELog receives the guardian's QoE history rows. *vdbms.Engine implements
// it; tests may substitute a recorder or disable persistence with nil.
type QoELog interface {
	AppendQoE(vdbms.QoERecord) error
}

// Guardian watches every admitted delivery of one Manager.
type Guardian struct {
	mgr      *core.Manager
	sim      *simtime.Simulator
	cfg      Config
	monitors map[*core.Delivery]*monitor
	met      guardianMetrics
	observer func(Event)
	qoe      QoELog
	seq      int // next session ordinal for QoE rows
}

// New creates a guardian and installs it as the manager's admission
// observer: every delivery admitted from now on is monitored. QoE history
// rows go to the manager's own vdbms engine; SetQoELog overrides.
func New(m *core.Manager, cfg Config) (*Guardian, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Guardian{
		mgr:      m,
		sim:      m.Sim(),
		cfg:      cfg.withDefaults(),
		monitors: make(map[*core.Delivery]*monitor),
		met:      newGuardianMetrics(m.Registry()),
	}
	if e := m.Engine(); e != nil {
		g.qoe = e
	}
	m.SetAdmissionObserver(g.Watch)
	return g, nil
}

// SetObserver installs fn to receive every guardian event (tests and
// experiment harnesses; nil disables).
func (g *Guardian) SetObserver(fn func(Event)) { g.observer = fn }

// Stats snapshots the guardian's counters.
func (g *Guardian) Stats() Stats {
	return Stats{
		Watched:          g.met.watched.Value(),
		Windows:          g.met.windows.Value(),
		Breaches:         g.met.breaches.Value(),
		Violations:       g.met.violations.Value(),
		ViolatedSessions: g.met.violatedSessions.Value(),
		StepDowns:        g.met.rungs[RungStepDown].Value(),
		Renegotiates:     g.met.rungs[RungRenegotiate].Value(),
		Migrations:       g.met.rungs[RungMigrate].Value(),
		Abandons:         g.met.rungs[RungAbandon].Value(),
		ReplanFailures:   g.met.replanFailures.Value(),
		SavedStepDown:    g.met.saved[RungStepDown].Value(),
		SavedRenegotiate: g.met.saved[RungRenegotiate].Value(),
		SavedMigrate:     g.met.saved[RungMigrate].Value(),

		LossViolations:       g.met.metricViolations[MetricLoss].Value(),
		DelayViolations:      g.met.metricViolations[MetricDelay].Value(),
		JitterViolations:     g.met.metricViolations[MetricJitter].Value(),
		ThroughputViolations: g.met.metricViolations[MetricThroughput].Value(),
		QoERecords:           g.met.qoeRecords.Value(),
	}
}

func (g *Guardian) emit(ev Event) {
	if g.observer != nil {
		g.observer(ev)
	}
}

// qoeRun accumulates the breaching windows of one violation run: the
// min/max/avg of the breached metric's window values and whether any window
// reached "peak" severity (twice the threshold distance). It resets on a
// clean window and after each declared violation.
type qoeRun struct {
	metric   Metric
	n        int
	min, max float64
	sum      float64
	peak     bool
}

// observe folds one breaching window into the run; a metric change (the
// dominant cause shifted) restarts the run on the new metric.
func (r *qoeRun) observe(v *Violation) {
	if r.n == 0 || r.metric != v.Metric {
		*r = qoeRun{metric: v.Metric, min: v.Observed, max: v.Observed}
	}
	r.n++
	r.sum += v.Observed
	if v.Observed < r.min {
		r.min = v.Observed
	}
	if v.Observed > r.max {
		r.max = v.Observed
	}
	// Peak: the window overshot by 2x the threshold distance — half the
	// floor for higher-is-better throughput, twice the cap otherwise.
	if v.Metric == MetricThroughput {
		if v.Observed <= v.Threshold/2 {
			r.peak = true
		}
	} else if v.Threshold > 0 && v.Observed >= 2*v.Threshold {
		r.peak = true
	}
}

// monitor tracks one delivery's windowed QoS and ladder position.
type monitor struct {
	g    *Guardian
	d    *core.Delivery
	sess *transport.Session // session the baseline snapshot belongs to
	tick *simtime.Ticker
	last transport.ObservedQoS

	breaches   int  // consecutive breaching windows
	cleans     int  // consecutive clean windows
	rung       int  // next ladder index to fire
	violated   bool // this delivery (or its re-plan ancestors) ever violated
	acted      bool // a rung has fired
	lastRung   Rung // highest rung that acted
	replanning bool // a renegotiate/migrate is in flight

	seq     int    // session ordinal in QoE rows (stable across re-plans)
	events  int    // QoE rows appended for this session (counter column)
	run     qoeRun // breach-run accumulator for the current window streak
	lastRun qoeRun // run snapshot of the last declared violation
}

// Watch begins monitoring a delivery (idempotent). Installed as the
// manager's admission observer, so it fires for initial admissions,
// failover re-admissions, and guardian re-plans alike.
func (g *Guardian) Watch(d *core.Delivery) {
	if d == nil || g.monitors[d] != nil {
		return
	}
	mon := &monitor{g: g, d: d, sess: d.Session, seq: g.seq}
	g.seq++
	if d.Session != nil {
		mon.last = d.Session.Observed()
	}
	g.monitors[d] = mon
	g.met.watched.Inc()
	mon.tick = g.sim.Every(g.cfg.Interval, mon.window)
}

// drop stops a monitor and forgets its delivery.
func (g *Guardian) drop(mon *monitor) {
	if g.monitors[mon.d] == mon {
		delete(g.monitors, mon.d)
	}
	mon.tick.Stop()
}

// finish concludes a monitor whose delivery ended; completedOK records a
// save when the guardian's surgery let a violated session finish.
func (g *Guardian) finish(mon *monitor, completedOK bool) {
	if completedOK && mon.violated && mon.acted && mon.lastRung < RungAbandon {
		g.met.saved[mon.lastRung].Inc()
		g.emit(Event{Kind: "saved", Delivery: mon.d})
	}
	g.drop(mon)
}

// window is the per-tick sampling body; returning false stops the ticker.
func (mon *monitor) window() bool {
	g := mon.g
	d := mon.d
	if g.monitors[d] != mon {
		return false // adopted away or already dropped
	}
	if d.Failed() {
		g.drop(mon)
		return false
	}
	if d.Recovering() || mon.replanning {
		return true // failover or re-plan in flight; judge the successor
	}
	sess := d.Session
	if sess == nil {
		return true
	}
	if sess != mon.sess {
		// Failover (or best-effort fallback) swapped the session in place:
		// re-baseline on the new session, don't judge it on day one.
		mon.sess = sess
		mon.last = sess.Observed()
		return true
	}
	if sess.Done() {
		g.finish(mon, !sess.Cancelled() && !sess.Failed())
		return false
	}
	cur := sess.Observed()
	prev := mon.last
	mon.last = cur
	g.met.windows.Inc()
	v := g.judge(d, cur, prev)
	if v == nil {
		mon.breaches = 0
		mon.run = qoeRun{}
		if mon.rung > 0 || mon.acted {
			mon.cleans++
			if mon.cleans >= g.cfg.ClearWindows && mon.rung > 0 {
				// The condition recovered (congestion receded, or a rung
				// worked): stop escalating, restart from the bottom.
				mon.rung = 0
				g.emit(Event{Kind: "recovered", Delivery: d})
				if mon.lastRun.n > 0 {
					g.recordQoE(mon, "recovered", mon.lastRun)
				}
			}
		}
		return true
	}
	mon.cleans = 0
	mon.breaches++
	mon.run.observe(v)
	g.met.breaches.Inc()
	g.emit(Event{Kind: "breach", Delivery: d})
	if mon.breaches < g.cfg.BreachWindows {
		return true
	}
	mon.breaches = 0
	v.Windows = g.cfg.BreachWindows
	g.met.violations.Inc()
	g.met.metricViolations[v.Metric].Inc()
	if !mon.violated {
		mon.violated = true
		g.met.violatedSessions.Inc()
	}
	d.Trace().Instant("guardian_violation", map[string]any{
		"metric": v.Metric.String(), "observed": v.Observed, "limit": v.Threshold,
	})
	g.emit(Event{Kind: "violation", Delivery: d})
	mon.lastRun = mon.run
	g.recordQoE(mon, "violation", mon.run)
	mon.run = qoeRun{}
	g.act(mon, v)
	return g.monitors[d] == mon
}

// recordQoE appends one QoE history row through the configured sink — the
// paper's qoe_errors relation: the vdbms records its own delivery quality,
// so SLA analysis is a SELECT over the qoe table. The counter column is a
// per-session ordinal; min/max/avg summarize the breaching windows of the
// run being reported.
func (g *Guardian) recordQoE(mon *monitor, kind string, run qoeRun) {
	if g.qoe == nil {
		return
	}
	d := mon.d
	rec := vdbms.QoERecord{
		Session:    mon.seq,
		Video:      d.Video().Title,
		Metric:     run.metric.String(),
		Kind:       kind,
		Counter:    mon.events,
		Peak:       run.peak,
		TimeMillis: g.sim.Now().Milliseconds(),
	}
	if run.n > 0 {
		rec.Min, rec.Max, rec.Avg = run.min, run.max, run.sum/float64(run.n)
	}
	if d.Plan != nil {
		rec.Site = d.Plan.DeliverySite
	}
	mon.events++
	if err := g.qoe.AppendQoE(rec); err != nil {
		d.Trace().Instant("guardian_qoe_append_error", map[string]any{"err": err.Error()})
		return
	}
	g.met.qoeRecords.Inc()
}

// judge evaluates one window (the delta between two snapshots) against the
// session's effective thresholds, returning the violation or nil. Per
// metric, a term in the delivery's own QoS clause (Requirement.Net) is the
// threshold; metrics the clause leaves unbounded fall back to the Config's
// relative limits with the exact pre-clause semantics (strict >, delay and
// jitter gated on a positive ideal, no throughput floor at all), so a
// clause-free session behaves bit for bit as before. Metrics are checked
// in precedence order — loss outranks delay outranks jitter outranks
// throughput: a window can breach several ways but one cause is actionable.
func (g *Guardian) judge(d *core.Delivery, cur, prev transport.ObservedQoS) *Violation {
	violation := func(m Metric, observed, limit float64) *Violation {
		v := &Violation{Metric: m, Observed: observed, Threshold: limit, Video: d.Video().Title}
		if d.Plan != nil {
			v.Site = d.Plan.DeliverySite
		}
		return v
	}
	dFrames := float64(cur.Frames - prev.Frames)
	dLost := cur.FramesLost - prev.FramesLost
	dShed := float64(cur.FramesShed - prev.FramesShed)
	offered := dFrames + dLost + dShed
	if offered < float64(g.cfg.MinSamples) {
		return nil // too thin to carry signal
	}
	ideal := cur.IdealDelayMillis
	dDelays := cur.Delays - prev.Delays
	delayValid := dDelays >= g.cfg.MinSamples
	win := qos.NetQoS{Loss: (dLost + dShed) / offered}
	if delayValid {
		win.DelayMillis = (cur.DelaySumMillis - prev.DelaySumMillis) / float64(dDelays)
		win.JitterMillis = (cur.JitterSumMillis - prev.JitterSumMillis) / float64(dDelays)
	}
	if secs := simtime.ToSeconds(g.cfg.Interval); secs > 0 {
		win.ThroughputBps = float64(cur.Bytes-prev.Bytes) / secs
	}
	req := d.Requirement()
	for _, m := range qos.NetMetrics {
		t, clause := req.NetThreshold(m)
		switch {
		case clause:
			if (m == qos.NetDelay || m == qos.NetJitter) && !delayValid {
				continue // too few delay samples to form a window mean
			}
		case m == qos.NetLoss:
			t = qos.Threshold{Metric: m, Dir: qos.AtMost, Bound: g.cfg.MaxLoss}
		case m == qos.NetDelay || m == qos.NetJitter:
			if ideal <= 0 || !delayValid {
				continue
			}
			f := g.cfg.DelayFactor
			if m == qos.NetJitter {
				f = g.cfg.JitterFactor
			}
			t = qos.Threshold{Metric: m, Dir: qos.AtMost, Bound: f * ideal}
		default:
			continue // throughput is clause-only: the config has no floor
		}
		val := win.Value(m)
		breached := !t.Met(val)
		if !clause {
			breached = val > t.Bound // bit-exact pre-clause comparison
		}
		if breached {
			return violation(metricOf(m), val, t.Bound)
		}
	}
	return nil
}

// act walks the ladder from the monitor's current rung, firing the first
// applicable one. Inapplicable rungs (drop strategy exhausted, no cheaper
// tier) fall through to the next.
func (g *Guardian) act(mon *monitor, v *Violation) {
	d := mon.d
	for mon.rung < len(g.cfg.Ladder) {
		r := g.cfg.Ladder[mon.rung]
		mon.rung++
		switch r {
		case RungStepDown:
			next, ok := transport.NextHarsher(mon.sess.Drop())
			if !ok {
				continue // already dropping everything but I frames
			}
			mon.sess.StepDown(next)
			mon.acted = true
			mon.lastRung = RungStepDown
			g.met.rungs[RungStepDown].Inc()
			d.Trace().Instant("guardian_stepdown", map[string]any{"drop": next.String()})
			g.emit(Event{Kind: RungStepDown.String(), Delivery: d})
			return
		case RungRenegotiate:
			req, ok := cheaperRequirement(d)
			if !ok {
				continue // already at the bottom quality tier
			}
			g.replan(mon, v, RungRenegotiate, req, nil)
			return
		case RungMigrate:
			if d.Plan == nil {
				continue
			}
			g.replan(mon, v, RungMigrate, d.Requirement(), []string{d.Plan.DeliverySite})
			return
		case RungAbandon:
			g.abandon(mon, v, nil)
			return
		}
	}
	// Ladder exhausted without an abandon rung (custom ladder): nothing
	// left to try; the session streams on at whatever QoS it gets.
}

// resolutionLadder orders the standard resolutions for the renegotiate
// rung's "next cheaper tier" walk.
var resolutionLadder = []qos.Resolution{qos.ResDVD, qos.ResSD, qos.ResCIF, qos.ResVCD, qos.ResQCIF}

// cheaperRequirement derives a strictly cheaper requirement than the plan
// currently delivers: resolution capped one ladder tier below the delivered
// one, frame rate capped at the delivered rate, format and security
// constraints carried over, minimum bounds dropped (cheaper is the point).
func cheaperRequirement(d *core.Delivery) (qos.Requirement, bool) {
	if d.Plan == nil {
		return qos.Requirement{}, false
	}
	cur := d.Plan.Delivered
	var next qos.Resolution
	for _, r := range resolutionLadder {
		if r.Pixels() < cur.Resolution.Pixels() {
			next = r
			break
		}
	}
	if next.W == 0 {
		return qos.Requirement{}, false
	}
	orig := d.Requirement()
	return qos.Requirement{
		MaxResolution: next,
		MaxFrameRate:  cur.FrameRate,
		Formats:       orig.Formats,
		Security:      orig.Security,
		// The net clause is the user's contract, not a quality knob: it
		// rides through renegotiation untouched. If no cheaper plan can
		// satisfy it, re-admission rejects (ErrQoSUnsatisfiable) and the
		// ladder escalates past this rung.
		Net: orig.Net,
	}, true
}

// replan fires the renegotiate or migrate rung: re-admit the video through
// the shared renegotiation path (cancel, re-plan, resume at the playback
// position), then transfer the ladder state onto the resulting delivery's
// monitor. If both the re-plan and the restore fallback fail, the delivery
// is gone — abandon so the failure carries ErrQoSAbandoned.
func (g *Guardian) replan(mon *monitor, v *Violation, r Rung, req qos.Requirement, avoid []string) {
	d := mon.d
	mon.acted = true
	mon.lastRung = r
	mon.replanning = true
	g.met.rungs[r].Inc()
	d.Trace().Instant("guardian_"+r.String(), map[string]any{"req": req.String()})
	g.emit(Event{Kind: r.String(), Delivery: d})
	opts := d.ServiceOptions()
	opts.StartFrame = 0 // let RenegotiateAsync resume at the live position
	opts.AvoidSites = avoid
	g.mgr.RenegotiateAsync(d, req, opts, func(nd *core.Delivery, err error) {
		mon.replanning = false
		if nd == nil {
			// Re-plan failed and the restore fallback failed too: the
			// delivery is gone either way; record it as a guardian shed.
			g.met.replanFailures.Inc()
			g.abandon(mon, v, err)
			return
		}
		if err != nil {
			// Restored at the original requirement: the rung didn't help,
			// but the stream lives; later violations take the next rung.
			g.met.replanFailures.Inc()
		}
		g.adopt(mon, nd)
	})
}

// adopt transfers ladder state from a re-planned delivery's monitor to its
// successor's, then retires the old monitor. The admission observer already
// created the successor's monitor when the re-plan was admitted.
func (g *Guardian) adopt(old *monitor, nd *core.Delivery) {
	g.Watch(nd) // no-op when the observer already did
	if nm := g.monitors[nd]; nm != nil && nm != old {
		nm.rung = old.rung
		nm.violated = old.violated
		nm.acted = old.acted
		nm.lastRung = old.lastRung
		// The QoE time-series follows the session across re-plans: same
		// ordinal, continuing counter, pending breach run carried over.
		nm.seq = old.seq
		nm.events = old.events
		nm.run = old.run
		nm.lastRun = old.lastRun
	}
	g.drop(old)
}

// abandon fires the final rung: shed the session with ErrQoSAbandoned
// wrapping the violation (and any re-plan error).
func (g *Guardian) abandon(mon *monitor, v *Violation, replanErr error) {
	d := mon.d
	mon.acted = true
	mon.lastRung = RungAbandon
	g.met.rungs[RungAbandon].Inc()
	cause := fmt.Errorf("%w: %w", ErrQoSAbandoned, v)
	if replanErr != nil {
		cause = fmt.Errorf("%w (re-plan also failed: %v)", cause, replanErr)
	}
	g.emit(Event{Kind: RungAbandon.String(), Delivery: d})
	g.mgr.AbandonDelivery(d, cause)
	g.drop(mon)
}
