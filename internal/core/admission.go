package core

import (
	"errors"
	"fmt"

	"quasaq/internal/broker"
	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
)

// ServiceOptions tunes one Service call.
type ServiceOptions struct {
	// TraceFrames enables the per-frame completion trace on the session.
	TraceFrames int
	// StartFrame resumes delivery at a frame offset (renegotiation).
	StartFrame int
	// OnDone fires when the delivery finishes.
	OnDone func(*Delivery)
	// OnFailed fires when a delivery is abandoned mid-stream: its session
	// failed and failover (if enabled) exhausted its budget without finding
	// a viable plan, or the QoS guardian shed it (errors.Is(err,
	// guardian.ErrQoSAbandoned)). The error satisfies errors.Is(err,
	// ErrNoViablePlan) when failover ran out of plans.
	OnFailed func(*Delivery, error)
	// AvoidSites excludes plans whose delivery site is listed — the
	// guardian's migrate rung re-plans away from a congested site with it.
	// It applies to this admission only and is not retained on the
	// delivery, so later failovers consider every site again.
	AvoidSites []string
}

// errReservationAbandoned reports a two-phase reservation that completed
// after its delivery was cancelled; the leases are rolled back and the plan
// attempt dropped.
var errReservationAbandoned = errors.New("core: delivery cancelled during reservation")

// Service runs the QoS phase for one identified video through the staged
// plan pipeline: candidate set (cached enumeration), liveness filter,
// incremental best-first costing, two-phase reservation over the control
// plane, streaming. It returns the admitted delivery, or ErrNoPlan /
// ErrRejected with the last per-plan admission failure joined into the
// error chain.
//
// Service requires the synchronous control plane (the default): every
// reservation then concludes within the call, exactly as when reservations
// were direct function calls. Once ConfigureControl gives the control net
// latency or loss, admission spans simulator events — use ServiceAsync.
func (m *Manager) Service(querySite string, id media.VideoID, req qos.Requirement, opts ServiceOptions) (*Delivery, error) {
	if !m.cluster.Ctrl.Config().Synchronous() {
		return nil, fmt.Errorf("%w (latency %v)", ErrAsyncControl, m.cluster.Ctrl.Config().Latency)
	}
	var (
		rd   *Delivery
		rerr error
	)
	m.ServiceAsync(querySite, id, req, opts, func(d *Delivery, err error) { rd, rerr = d, err })
	return rd, rerr
}

// ServiceAsync is Service in continuation-passing form: done fires exactly
// once with the admission outcome, after however many control-plane round
// trips the two-phase reservations need. On the synchronous control plane
// done fires before ServiceAsync returns.
//
// When an admission queue is configured (ConfigureAdmissionQueue), the
// request may wait for a slot first and can expire with ErrAdmissionDeadline
// before any plan is tried; the admission-latency histogram always measures
// from arrival, queueing included.
func (m *Manager) ServiceAsync(querySite string, id media.VideoID, req qos.Requirement, opts ServiceOptions, done func(*Delivery, error)) {
	start := m.cluster.Sim.Now()
	finish := func(d *Delivery, err error) {
		m.met.admissionLatency.Observe(1000 * simtime.ToSeconds(m.cluster.Sim.Now()-start))
		done(d, err)
	}
	m.met.queries.Inc()
	if m.aq != nil {
		m.aq.submit(func(conclude func(*Delivery, error)) {
			m.serviceAdmit(querySite, id, req, opts, conclude)
		}, finish)
		return
	}
	m.serviceAdmit(querySite, id, req, opts, finish)
}

// serviceAdmit is the admission pipeline proper, past any queueing: plan
// candidates, liveness, costing, two-phase reservation, session bind.
func (m *Manager) serviceAdmit(querySite string, id media.VideoID, req qos.Requirement, opts ServiceOptions, finish func(*Delivery, error)) {
	m.sessSeq++
	var scope *obs.Scope // nil without a tracer: nothing below formats or builds trace arguments
	if m.tracer != nil {
		scope = m.tracer.Scope(querySite, fmt.Sprintf("s%04d %s", m.sessSeq, id))
	}
	qn, err := m.cluster.Node(querySite)
	if err != nil {
		finish(nil, err)
		return
	}
	if qn.Down() {
		m.met.noViablePlan.Inc()
		traceReject(scope, "query site down")
		finish(nil, fmt.Errorf("core: query site %s: %w", querySite, gara.ErrNodeDown))
		return
	}
	lookup := scope.Span("content_lookup", nil)
	v, err := m.cluster.Engine.Video(id)
	lookup.End()
	if err != nil {
		finish(nil, err)
		return
	}
	enum := scope.Span("plan_enumerate", nil)
	plans, hit := m.planCandidates(querySite, v, req)
	if enum != nil {
		enum.SetArg("cache", cacheLabel(hit))
		enum.SetArg("plans", len(plans))
		enum.End()
	}
	m.met.plansGenerated.Add(uint64(len(plans)))
	if len(plans) == 0 {
		m.met.noPlan.Inc()
		traceReject(scope, "no plan")
		finish(nil, fmt.Errorf("%w: %s with %s", ErrNoPlan, id, req))
		return
	}
	live := m.viable(plans)
	if len(live) == 0 {
		m.met.noViablePlan.Inc()
		traceReject(scope, "no viable plan")
		finish(nil, fmt.Errorf("%w: every plan for %s touches a down site (%d plans)",
			ErrNoViablePlan, id, len(plans)))
		return
	}
	if len(opts.AvoidSites) > 0 {
		live = excludeSites(live, opts.AvoidSites)
		if len(live) == 0 {
			m.met.noViablePlan.Inc()
			traceReject(scope, "all live plans on avoided sites")
			finish(nil, fmt.Errorf("%w: every live plan for %s delivers from an avoided site",
				ErrNoViablePlan, id))
			return
		}
	}
	// Network-clause gate: with net thresholds in the requirement, any plan
	// whose priced network vector cannot meet them is unfundable no matter
	// what the broker says — filter before costing, and reject with a
	// cause distinguishable from resource exhaustion when nothing is left.
	if len(req.Net) > 0 {
		live = netFeasible(live, req)
		if len(live) == 0 {
			m.met.rejected.Inc()
			m.met.qosUnsatisfiable.Inc()
			traceReject(scope, "qos clause unsatisfiable")
			finish(nil, fmt.Errorf("%w: %s with %s: %w", ErrRejected, id, req, ErrQoSUnsatisfiable))
			return
		}
	}
	var rank *obs.Span
	if scope.Enabled() {
		rank = scope.Span("cost_rank", map[string]any{"viable": len(live)})
	}
	next := m.admissionOrder(live)
	rank.End()
	// AvoidSites is per-admission: scrub it before the options become the
	// delivery's, so failover and renegotiation see every site again.
	dopts := opts
	dopts.AvoidSites = nil
	d := &Delivery{mgr: m, video: v, req: req, querySite: querySite, opts: dopts, trace: scope}
	m.tryPlans(d, next, opts.StartFrame, scope, nil, func(p *Plan, lastErr error) {
		if p != nil {
			m.met.admitted.Inc()
			if scope.Enabled() {
				scope.Instant("admit", map[string]any{"site": p.DeliverySite})
			}
			if m.onAdmit != nil {
				m.onAdmit(d)
			}
			finish(d, nil)
			return
		}
		m.met.rejected.Inc()
		traceReject(scope, "admission control")
		if lastErr != nil {
			finish(nil, fmt.Errorf("%w: %s with %s (%d plans): %w", ErrRejected, id, req, len(live), lastErr))
			return
		}
		finish(nil, fmt.Errorf("%w: %s with %s (%d plans)", ErrRejected, id, req, len(live)))
	})
}

// tryPlans walks the costed plan iterator, attempting a two-phase
// reservation per plan (streaming from frame start), and continues with the
// admitted plan or (nil, lastErr) when the iterator is exhausted.
func (m *Manager) tryPlans(d *Delivery, next func() (*Plan, bool), start int, scope *obs.Scope, lastErr error, done func(*Plan, error)) {
	p, ok := next()
	if !ok {
		done(nil, lastErr)
		return
	}
	m.met.plansTried.Inc()
	var rsv *obs.Span
	if scope.Enabled() {
		rsv = scope.Span("reserve", map[string]any{
			"site": p.DeliverySite, "replica": p.Replica.Site,
		})
	}
	m.executeInto(d, p, start, func(err error) {
		if err == nil {
			rsv.SetArg("outcome", "granted")
			rsv.End()
			done(p, nil)
			return
		}
		if rsv != nil {
			rsv.SetArg("outcome", err.Error())
			rsv.End()
		}
		m.tryPlans(d, next, start, scope, err, done)
	})
}

// traceReject records why admission refused a query; the argument map is
// built only when the scope is tracing.
func traceReject(scope *obs.Scope, cause string) {
	if scope.Enabled() {
		scope.Instant("reject", map[string]any{"cause": cause})
	}
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// planCandidates is the static stage of the pipeline: the memoized
// candidate set for (querySite, video, requirement). A fresh cache entry
// skips enumeration entirely; otherwise the generator fills one under
// the current topology/liveness epochs. The second result reports whether
// the cache served the set (the trace's hit/miss annotation).
func (m *Manager) planCandidates(querySite string, v *media.Video, req qos.Requirement) ([]*Plan, bool) {
	return m.cache.GetOrFill(querySite, v.ID, req, func() []*Plan {
		return m.gen.GenerateAll(querySite, v, req)
	})
}

// netFeasible keeps the plans whose priced network vector admits under the
// requirement's AND-composed thresholds (Requirement.Admits).
func netFeasible(plans []*Plan, req qos.Requirement) []*Plan {
	out := make([]*Plan, 0, len(plans))
	for _, p := range plans {
		if req.Admits(p.PricedNetQoS()) {
			out = append(out, p)
		}
	}
	return out
}

// excludeSites filters out plans delivering from any listed site, without
// mutating the input.
func excludeSites(plans []*Plan, avoid []string) []*Plan {
	out := make([]*Plan, 0, len(plans))
	for _, p := range plans {
		skip := false
		for _, s := range avoid {
			if p.DeliverySite == s {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, p)
		}
	}
	return out
}

// viable filters out plans touching down sites — the "plan enumeration
// excluding the dead site" step of both admission during an outage and
// mid-stream failover. It never mutates the (possibly cached) input.
func (m *Manager) viable(plans []*Plan) []*Plan {
	out := make([]*Plan, 0, len(plans))
	for _, p := range plans {
		if m.siteDown(p.DeliverySite) || m.siteDown(p.Replica.Site) ||
			(p.Split() && m.siteDown(p.TailReplica.Site)) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// admissionOrder is the dynamic costing stage: it returns an iterator
// yielding live plans best-first under the configured model and current
// usage. Models with incremental costing pop from a heap (O(n) build,
// O(log n) per plan actually tried); single-shot models draw exactly one
// plan; anything else falls back to a full Order.
func (m *Manager) admissionOrder(live []*Plan) func() (*Plan, bool) {
	if ss, ok := m.model.(singleShot); ok && ss.SingleShot() {
		ranked := m.model.Order(live, m.siteUsage)
		if len(ranked) > 1 {
			ranked = ranked[:1]
		}
		return sliceIter(ranked)
	}
	if coster, ok := m.model.(Coster); ok {
		return NewBestFirst(live, coster, m.siteUsage).Next
	}
	return sliceIter(m.model.Order(live, m.siteUsage))
}

func sliceIter(plans []*Plan) func() (*Plan, bool) {
	i := 0
	return func() (*Plan, bool) {
		if i == len(plans) {
			return nil, false
		}
		p := plans[i]
		i++
		return p, true
	}
}

// executeInto runs one plan's two-phase reservation through the control
// plane — one PREPARE/COMMIT participant per reservation stage of the plan,
// all-or-nothing and TTL-reclaimed — and on success binds the streaming
// session, resuming at frame start, to d. It is the shared tail of
// admission and failover: on failover the same Delivery gets a new
// Plan/Session in place. done receives nil on success or the first
// refusal/timeout after the coordinator rolled the transaction back.
func (m *Manager) executeInto(d *Delivery, p *Plan, start int, done func(error)) {
	v := d.video
	period := simtime.Seconds(1 / p.Delivered.FrameRate)
	stages := p.ReservationStages()
	parts := make([]broker.Participant, len(stages))
	for i, st := range stages {
		parts[i] = broker.Participant{Site: st.Site, Name: v.Title + st.Suffix, Vec: st.Vec, Period: period}
	}
	m.coord.Reserve(d.querySite, parts, d.trace, func(leases []*gara.Lease, err error) {
		if err != nil {
			done(err)
			return
		}
		if d.aborted { // cancelled while the reservation was in flight
			for _, l := range leases {
				l.Release()
			}
			done(errReservationAbandoned)
			return
		}
		done(m.bind(d, p, leases, start))
	})
}

// bind starts the streaming session on the committed leases and wires the
// failure-detection callbacks — the local tail of a successful two-phase
// reservation. Leases arrive parallel to the plan's reservation stages and
// become the delivery's: the session streams on one, the delivery holds the
// rest and releases them with it. Any failure here returns them all.
func (m *Manager) bind(d *Delivery, p *Plan, leases []*gara.Lease, start int) error {
	d.held = leases
	fail := func(err error) error {
		d.releaseHeld()
		return err
	}
	stages := p.ReservationStages()
	if len(leases) != len(stages) {
		return fail(fmt.Errorf("core: plan for %s committed %d leases for %d reservation stages",
			d.video.ID, len(leases), len(stages)))
	}
	cfg := d.sessionConfig(p.DeliveredVariant, p.Drop, p.ExtraPerFrameCPU, start)
	// Staged GOP supply: when a farm is enabled, transcoding plans stream
	// GOPs through it — offloaded plans because the conversion genuinely
	// runs there, and inline plans under a *neutral* farm because routing
	// through instant workers is free and keeps one code path. A non-neutral
	// farm leaves inline plans alone: their conversion is priced on the
	// delivery CPU and must not also occupy a farm worker.
	if m.farm != nil && p.Transcode != nil && (p.FarmOffloaded() || m.farm.Neutral()) {
		cfg.Farm = m.farm
		cfg.FarmWork = p.stage(StageTranscode).Work
	}
	// The session streams on the deliver stage's lease. Split plans deliver
	// in two legs: the edge prefix streams first and hands the viewer over
	// to the tail site's full replica at the split frame. A resume already
	// past the boundary skips the prefix leg and starts directly on the
	// tail lease, returning the edge one.
	own := deliverStage
	onDone := m.teardown(d)
	if p.Split() {
		if start < p.SplitFrame {
			cfg.EndFrame = p.SplitFrame
			onDone = func(*transport.Session) { m.handover(d) }
		} else {
			own = tailStage
		}
	}
	node, err := m.cluster.Node(stages[own].Site)
	if err != nil {
		return fail(err)
	}
	d.Plan = p
	d.handedOver = own == tailStage
	if d.handedOver {
		d.held[deliverStage].Release()
		d.held[deliverStage] = nil
	}
	sess, err := transport.StartReserved(m.cluster.Sim, node, cfg, d.held[own], onDone)
	if err != nil {
		return fail(err)
	}
	d.held[own] = nil // the session's from here on
	// Failure detection: the session lease's revocation fails the session
	// (wired inside StartReserved); the session's failure, and any held
	// lease's revocation, land in the manager's recovery path.
	sess.SetOnFail(func(_ *transport.Session, cause error) { m.onSessionFail(d, cause) })
	for i, l := range d.held {
		if l != nil {
			l.SetOnRevoke(func(cause error) { m.onHeldRevoked(d, i, cause) })
		}
	}
	if p.Split() {
		m.met.splitAdmissions.Inc()
	}
	m.cluster.sessionStarted()
	d.Session = sess
	if d.trace.Enabled() {
		d.streamSpan = d.trace.Span("stream", map[string]any{
			"site":  stages[own].Site,
			"video": d.video.Title,
			"fps":   p.Delivered.FrameRate,
		})
		if p.Remote() {
			d.streamSpan.SetArg("source", p.Replica.Site)
		}
	}
	return nil
}

// teardown returns the completion callback ending a delivery: it fires when
// the only (or, for a split plan, the final) leg finishes streaming.
func (m *Manager) teardown(d *Delivery) func(*transport.Session) {
	return func(s *transport.Session) {
		// A resume at the video's end finishes synchronously inside
		// StartReserved, before bind assigns d.Session — publish the
		// session first so OnDone never sees a nil one.
		if d.Session == nil {
			d.Session = s
		}
		m.cluster.sessionEnded()
		d.streamSpan.End()
		d.trace.Instant("teardown", nil)
		d.releaseHeld()
		if d.opts.OnDone != nil {
			d.opts.OnDone(d)
		}
	}
}

// handover continues a split delivery on its tail leg: the prefix leg just
// drained at the edge (its own lease was released by the session's finish),
// and the video resumes at the split frame from the tail site's full
// replica, on the lease reserved at admission. The logical delivery
// continues — no extra sessionStarted/Ended pair. A handover that cannot
// start is a mid-stream failure at the boundary and takes the normal
// recovery path.
func (m *Manager) handover(d *Delivery) {
	p := d.Plan
	tl := d.held[tailStage]
	if tl == nil {
		// The tail lease was revoked while the prefix streamed;
		// onHeldRevoked already failed the session and recovery owns the
		// delivery.
		return
	}
	d.held[tailStage] = nil // the tail session's from here on
	node, err := m.cluster.Node(p.TailReplica.Site)
	if err == nil {
		cfg := d.sessionConfig(p.DeliveredVariant, p.Drop, p.ExtraPerFrameCPU, p.SplitFrame)
		var sess *transport.Session
		sess, err = transport.StartReserved(m.cluster.Sim, node, cfg, tl, m.teardown(d))
		if err == nil {
			d.handedOver = true
			m.met.handovers.Inc()
			sess.SetOnFail(func(_ *transport.Session, cause error) { m.onSessionFail(d, cause) })
			d.Session = sess
			d.streamSpan.SetArg("outcome", "handover")
			d.streamSpan.End()
			d.trace.Instant("handover", map[string]any{
				"to": p.TailReplica.Site, "frame": p.SplitFrame,
			})
			d.streamSpan = d.trace.Span("stream", map[string]any{
				"site":  p.TailReplica.Site,
				"video": d.video.Title,
				"fps":   p.Delivered.FrameRate,
				"leg":   "tail",
			})
			return
		}
	}
	tl.Release()
	m.onSessionFail(d, err)
}

// Renegotiate services the delivery's video again under a new requirement,
// cancelling the current session first — the §3.2 renegotiation path for
// user QoP changes during playback. Delivery resumes from the session's
// playback position (rounded back to a GOP boundary) rather than
// restarting. If the new requirement cannot be admitted it attempts to
// restore a delivery at the original requirement and returns the admission
// error alongside whatever delivery resulted. Like Service, it requires the
// synchronous control plane; use RenegotiateAsync otherwise.
func (m *Manager) Renegotiate(d *Delivery, req qos.Requirement, opts ServiceOptions) (*Delivery, error) {
	if !m.cluster.Ctrl.Config().Synchronous() {
		return nil, fmt.Errorf("%w (latency %v)", ErrAsyncControl, m.cluster.Ctrl.Config().Latency)
	}
	var (
		rd   *Delivery
		rerr error
	)
	m.RenegotiateAsync(d, req, opts, func(nd *Delivery, err error) { rd, rerr = nd, err })
	return rd, rerr
}

// RenegotiateAsync is Renegotiate in continuation-passing form, running both
// the upgrade attempt and the restore fallback through the control plane.
func (m *Manager) RenegotiateAsync(d *Delivery, req qos.Requirement, opts ServiceOptions, done func(*Delivery, error)) {
	m.met.renegotiations.Inc()
	d.trace.Instant("renegotiate", map[string]any{"req": req.String()})
	if d.failed {
		done(nil, fmt.Errorf("core: renegotiate abandoned delivery: %w", d.err))
		return
	}
	if opts.StartFrame == 0 {
		if d.recovering {
			// Mid-failover: the dead session's resume point stands in for
			// the live playback position.
			opts.StartFrame = d.resumeFrom
		} else {
			opts.StartFrame = d.Session.Position()
		}
	}
	d.Cancel()
	m.ServiceAsync(d.querySite, d.video.ID, req, opts, func(nd *Delivery, err error) {
		if err == nil {
			done(nd, nil)
			return
		}
		m.ServiceAsync(d.querySite, d.video.ID, d.req, opts, func(od *Delivery, rerr error) {
			if rerr == nil {
				done(od, err)
				return
			}
			done(nil, err)
		})
	})
}
