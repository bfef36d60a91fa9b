package core

import (
	"errors"
	"fmt"
	"time"

	"quasaq/internal/media"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
)

// The failure detector and the recovery retry budget: a 200 ms heartbeat
// detector with three retries backing off from 500 ms.
const (
	// DetectionDelay models the failure detector's lag: the sim-time between
	// a fault killing a session and the quality manager noticing.
	DetectionDelay = 200 * time.Millisecond
	// RetryBackoff is the wait before re-attempting after a recovery attempt
	// finds no admittable plan; it doubles on each retry.
	RetryBackoff = 500 * time.Millisecond
	// MaxRetries bounds recovery retries per failure — the per-delivery
	// failover budget. The initial attempt is not a retry.
	MaxRetries = 3
)

// FailoverPolicy says what recovery does once no reserved plan survives the
// retry budget. The zero policy abandons the delivery.
type FailoverPolicy struct {
	// BestEffortFallback, when set, downgrades the delivery to an unreserved
	// best-effort stream when no reserved plan survives the budget, instead
	// of abandoning it.
	BestEffortFallback bool
}

// DefaultFailoverPolicy returns the zero policy: abandon a delivery no
// reserved plan can carry.
func DefaultFailoverPolicy() FailoverPolicy { return FailoverPolicy{} }

// FailoverEvent describes one concluded recovery: a successful failover, a
// best-effort downgrade, or an abandonment.
type FailoverEvent struct {
	Video    media.VideoID
	At       simtime.Time // when recovery concluded
	FromSite string       // delivery site of the failed session
	ToSite   string       // new delivery site ("" when abandoned)
	Latency  simtime.Time // failure -> resumed streaming
	Frames   float64      // frames lost during the gap
	Attempts int          // recovery attempts consumed
	Degraded bool         // resumed as an unreserved best-effort stream
	Err      error        // non-nil when the delivery was abandoned
}

// EnableFailover turns on failure detection and mid-stream recovery: when
// an admitted session loses a resource lease (node crash, link fault), the
// manager re-runs the plan pipeline — reusing the cached candidate set,
// filtering down sites — reserves a new lease via the composite QoS API,
// and resumes the stream on an alternate replica from the last delivered
// position.
func (m *Manager) EnableFailover(p FailoverPolicy) { m.failover = &p }

// SetFailoverObserver registers fn to be called at the conclusion of every
// recovery (success, degrade, or abandonment) — the chaos experiment's
// metrics tap.
func (m *Manager) SetFailoverObserver(fn func(FailoverEvent)) { m.onFailover = fn }

func (m *Manager) noteFailover(ev FailoverEvent) {
	if m.onFailover != nil {
		m.onFailover(ev)
	}
}

// onHeldRevoked handles revocation of a lease the delivery holds beside its
// session's: a remote plan's source relay, an offloaded plan's farm stage,
// or a split plan's parked tail leg. The session's own resources are intact
// but the stream can no longer be fed — or, for the tail, finished, and a
// recovery from the current position beats a guaranteed stall at the split
// boundary. Fail it; recovery follows through onSessionFail, which re-plans
// (possibly back onto an inline transcode or an origin-only delivery).
func (m *Manager) onHeldRevoked(d *Delivery, i int, cause error) {
	d.held[i] = nil // already reclaimed by the revocation
	if d.Session != nil {
		d.Session.Fail(cause)
	}
}

// onSessionFail is the failure-detection entry point: an admitted session
// died mid-stream. Without failover the delivery is abandoned immediately;
// with it, recovery is scheduled after the detector's lag.
func (m *Manager) onSessionFail(d *Delivery, cause error) {
	m.cluster.sessionEnded()
	d.releaseHeld()
	m.met.sessionFailures.Inc()
	d.failedAt = m.cluster.Sim.Now()
	d.failedFrom = d.Plan.DeliverySite
	if d.handedOver && d.Plan.Split() {
		d.failedFrom = d.Plan.TailReplica.Site
	}
	d.resumeFrom = d.Session.Position()
	d.fpsAtFail = d.Plan.Delivered.FrameRate
	d.failCause = cause
	d.streamSpan.SetArg("outcome", "failed")
	d.streamSpan.End()
	d.trace.Instant("session_fail", map[string]any{"cause": fmt.Sprint(cause)})
	d.failSpan = d.trace.Span("failover", map[string]any{"from": d.failedFrom})
	if m.failover == nil {
		m.abandon(d, 0, cause)
		return
	}
	d.recovering = true
	d.recoveryEv = m.cluster.Sim.Schedule(DetectionDelay, func() {
		m.attemptFailover(d, 1)
	})
}

// attemptFailover is one recovery attempt: re-enter the plan pipeline at
// the cached-candidate stage (a node transition bumped the liveness epoch,
// so the first attempt after a fault re-enumerates once and every retry
// hits the cache), drop plans touching down sites, and try to reserve and
// resume best-first. Attempts that find nothing back off exponentially
// until the per-delivery budget is spent, then degrade to best-effort or
// abandon with ErrNoViablePlan.
func (m *Manager) attemptFailover(d *Delivery, attempt int) {
	d.recoveryEv = nil
	if !d.recovering { // cancelled while waiting
		return
	}
	m.met.failoverAttempts.Inc()
	d.trace.Instant("failover_attempt", map[string]any{"attempt": attempt})
	plans, hit := m.planCandidates(d.querySite, d.video, d.req)
	live := m.viable(plans)
	if len(live) == 0 {
		m.concludeFailover(d, attempt, fmt.Errorf("%w: every replica of %s is on a down site (%d plans)",
			ErrNoViablePlan, d.video.ID, len(plans)))
		return
	}
	next := m.admissionOrder(live)
	var tryNext func(lastErr error)
	tryNext = func(lastErr error) {
		p, ok := next()
		if !ok {
			m.concludeFailover(d, attempt, lastErr)
			return
		}
		m.executeInto(d, p, d.resumeFrom, func(err error) {
			if errors.Is(err, errReservationAbandoned) {
				// Cancelled while a reservation was in flight; the leases
				// are rolled back and recovery is over.
				return
			}
			if err != nil {
				tryNext(err)
				return
			}
			d.recovering = false
			latency := m.cluster.Sim.Now() - d.failedAt
			lost := simtime.ToSeconds(latency) * d.fpsAtFail
			m.met.failovers.Inc()
			m.met.framesLost.Add(lost)
			m.met.failoverLatency.Add(int64(latency))
			d.failSpan.SetArg("to", p.DeliverySite)
			d.failSpan.SetArg("cache", cacheLabel(hit))
			d.failSpan.SetArg("frames_lost", lost)
			d.failSpan.SetArg("attempts", attempt)
			d.failSpan.End()
			d.trace.Instant("resume", map[string]any{"site": p.DeliverySite, "frame": d.resumeFrom})
			m.noteFailover(FailoverEvent{
				Video:    d.video.ID,
				At:       m.cluster.Sim.Now(),
				FromSite: d.failedFrom,
				ToSite:   p.DeliverySite,
				Latency:  latency,
				Frames:   lost,
				Attempts: attempt,
			})
		})
	}
	tryNext(nil)
}

// concludeFailover is the tail of a recovery attempt that admitted nothing:
// back off and retry while the budget lasts, then degrade to best-effort or
// abandon.
func (m *Manager) concludeFailover(d *Delivery, attempt int, lastErr error) {
	if !d.recovering { // cancelled while reservations were in flight
		return
	}
	if attempt <= MaxRetries {
		m.met.failoverRetries.Inc()
		backoff := RetryBackoff << (attempt - 1)
		d.recoveryEv = m.cluster.Sim.Schedule(backoff, func() { m.attemptFailover(d, attempt+1) })
		return
	}
	if m.failover.BestEffortFallback && m.bestEffortFallback(d, attempt) {
		return
	}
	m.abandon(d, attempt, lastErr)
}

// bestEffortFallback resumes the delivery as an unreserved stream of the
// original replica's variant from a live site hosting one — keeping the
// viewer moving with no QoS guarantee. Reports whether it succeeded.
func (m *Manager) bestEffortFallback(d *Delivery, attempt int) bool {
	for _, rep := range m.cluster.Dir.Lookup(d.querySite, d.video.ID) {
		// A prefix replica cannot stream the tail of the video; only full
		// copies qualify for the unreserved fallback.
		if !rep.Full() || m.siteDown(rep.Site) {
			continue
		}
		node, err := m.cluster.Node(rep.Site)
		if err != nil {
			continue
		}
		cfg := d.sessionConfig(rep.Variant, transport.DropNone, 0, d.resumeFrom)
		sess, err := transport.StartBestEffort(m.cluster.Sim, node, cfg, func(s *transport.Session) {
			// A resume at the video's end finishes synchronously inside
			// StartBestEffort, before d.Session is assigned below.
			if d.Session == nil {
				d.Session = s
			}
			m.cluster.sessionEnded()
			d.streamSpan.End()
			d.trace.Instant("teardown", nil)
			if d.opts.OnDone != nil {
				d.opts.OnDone(d)
			}
		})
		if err != nil {
			continue
		}
		m.cluster.sessionStarted()
		d.Session = sess
		d.recovering = false
		latency := m.cluster.Sim.Now() - d.failedAt
		lost := simtime.ToSeconds(latency) * d.fpsAtFail
		m.met.bestEffortFallbacks.Inc()
		m.met.framesLost.Add(lost)
		d.failSpan.SetArg("to", rep.Site)
		d.failSpan.SetArg("degraded", true)
		d.failSpan.End()
		d.streamSpan = d.trace.Span("stream", map[string]any{
			"site": rep.Site, "video": d.video.Title, "mode": "best-effort",
		})
		d.trace.Instant("resume", map[string]any{"site": rep.Site, "frame": d.resumeFrom})
		m.noteFailover(FailoverEvent{
			Video:    d.video.ID,
			At:       m.cluster.Sim.Now(),
			FromSite: d.failedFrom,
			ToSite:   rep.Site,
			Latency:  latency,
			Frames:   lost,
			Attempts: attempt,
			Degraded: true,
		})
		return true
	}
	return false
}

// abandon marks the delivery failed with a typed error — the graceful
// rejection of an unrecoverable mid-stream fault. The error chain carries
// ErrNoViablePlan, the last per-attempt admission cause, and the original
// fault that killed the session (so errors.Is finds ErrNodeDown /
// ErrLeaseRevoked / netsim.ErrLinkDown in the error OnFailed receives).
func (m *Manager) abandon(d *Delivery, attempts int, cause error) {
	d.recovering = false
	d.failed = true
	switch {
	case cause == nil:
		d.err = fmt.Errorf("%w: delivery of %s abandoned after %d attempts",
			ErrNoViablePlan, d.video.ID, attempts)
	case errors.Is(cause, ErrNoViablePlan):
		d.err = cause
	default:
		d.err = fmt.Errorf("%w: delivery of %s abandoned after %d attempts: %w",
			ErrNoViablePlan, d.video.ID, attempts, cause)
	}
	if fc := d.failCause; fc != nil && !errors.Is(d.err, fc) {
		d.err = fmt.Errorf("%w (original fault: %w)", d.err, fc)
	}
	m.met.failoverRejects.Inc()
	d.failSpan.SetArg("outcome", "abandoned")
	d.failSpan.SetArg("attempts", attempts)
	d.failSpan.End()
	d.trace.Instant("abandon", map[string]any{"cause": d.err.Error()})
	m.noteFailover(FailoverEvent{
		Video:    d.video.ID,
		At:       m.cluster.Sim.Now(),
		FromSite: d.failedFrom,
		Attempts: attempts,
		Err:      d.err,
	})
	if d.opts.OnFailed != nil {
		d.opts.OnFailed(d, d.err)
	}
}
