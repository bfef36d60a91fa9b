package netsim

import (
	"quasaq/internal/simtime"
)

// Transfer moves a fixed number of bytes over a best-effort flow, tracking
// rate changes as other traffic comes and goes. QuaSAQ uses it for the
// inter-server replica movement step of plans whose source and delivery
// sites differ (Figure 2's "transfer the media to server A").
type Transfer struct {
	sim       *simtime.Simulator
	flow      *Flow
	remaining float64
	prevRate  float64 // rate in effect since lastTick
	lastTick  simtime.Time
	doneEv    *simtime.Event
	done      func(simtime.Time)
	finished  bool
}

// StartTransfer begins sending bytes over the link with the given demanded
// rate; done fires at completion. The transfer adapts its completion time
// as its achieved rate changes.
func StartTransfer(sim *simtime.Simulator, l *Link, bytes int64, demand float64, done func(simtime.Time)) *Transfer {
	t := &Transfer{sim: sim, remaining: float64(bytes), lastTick: sim.Now(), done: done}
	t.flow = l.Join(demand, func(float64) { t.reschedule() })
	t.reschedule()
	return t
}

// reschedule folds progress made at the previous rate into the remaining
// byte count, then recomputes the completion event from the current rate.
func (t *Transfer) reschedule() {
	if t.finished {
		return
	}
	now := t.sim.Now()
	if t.prevRate > 0 {
		t.remaining -= simtime.ToSeconds(now-t.lastTick) * t.prevRate
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	t.lastTick = now
	t.prevRate = t.flow.Rate()
	t.sim.Cancel(t.doneEv)
	if t.remaining <= 0 {
		t.complete()
		return
	}
	rate := t.flow.Rate()
	if rate <= 0 {
		t.doneEv = nil // starved; wait for the next rate change
		return
	}
	t.doneEv = t.sim.Schedule(simtime.Seconds(t.remaining/rate), t.complete)
}

func (t *Transfer) complete() {
	if t.finished {
		return
	}
	t.finished = true
	t.flow.Leave()
	if t.done != nil {
		t.done(t.sim.Now())
	}
}
