package core

import (
	"errors"
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
	"quasaq/internal/transport"
)

// Tentpole coverage: failure detection, mid-stream failover, graceful
// rejection, and renegotiation across a source failure.

func failoverManager(c *Cluster) *Manager {
	m := NewManager(c, LRB{})
	m.EnableFailover(DefaultFailoverPolicy())
	return m
}

func TestFailoverResumesOnAlternateReplica(t *testing.T) {
	sim, c := testCluster(t)
	m := failoverManager(c)
	var events []FailoverEvent
	m.SetFailoverObserver(func(ev FailoverEvent) { events = append(events, ev) })

	var done *Delivery
	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{
		OnDone: func(x *Delivery) { done = x },
	})
	if err != nil {
		t.Fatal(err)
	}
	origSite := d.Plan.DeliverySite

	// Crash the delivery site mid-stream.
	sim.ScheduleAt(simtime.Seconds(5), func() { c.Nodes[origSite].Fail() })
	sim.Run()

	if done != d {
		t.Fatal("delivery did not complete after failover")
	}
	if len(events) != 1 {
		t.Fatalf("failovers = %d, want 1", len(events))
	}
	ev := events[0]
	if d.Plan.DeliverySite == origSite {
		t.Fatalf("resumed on the crashed site %s", origSite)
	}
	if d.Failed() || ev.Degraded || d.Recovering() {
		t.Fatalf("failed=%v degraded=%v recovering=%v", d.Failed(), ev.Degraded, d.Recovering())
	}
	if ev.Frames <= 0 {
		t.Fatal("no frames-lost accounting")
	}
	if ev.FromSite != origSite || ev.ToSite != d.Plan.DeliverySite || ev.Err != nil || ev.Degraded {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Latency < DetectionDelay {
		t.Fatalf("latency %v below the detection delay", ev.Latency)
	}
	st := m.Stats()
	if st.SessionFailures != 1 || st.Failovers != 1 || st.FailoverRejects != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FailoverLatencyTotal != ev.Latency || st.FramesLostInFailover != ev.Frames {
		t.Fatalf("aggregate metrics diverge from the event: %+v vs %+v", st, ev)
	}
	if c.OutstandingSessions() != 0 {
		t.Fatal("sessions leaked")
	}
}

func TestFailoverResumesNearLastPosition(t *testing.T) {
	sim, c := testCluster(t)
	m := failoverManager(c)
	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	origSite := d.Plan.DeliverySite
	sim.ScheduleAt(simtime.Seconds(10), func() { c.Nodes[origSite].Fail() })
	sim.RunUntil(simtime.Seconds(12))
	if n := m.Stats().Failovers; n != 1 {
		t.Fatalf("failovers = %d", n)
	}
	// Ten seconds at >=20 fps is >=200 frames; the resumed session must
	// start near there, not from zero. A session restarted from frame zero
	// would be near frame 60 at 12 s.
	if pos := d.Session.Position(); pos < 150 {
		t.Fatalf("resumed session at frame %d, want past the failure position", pos)
	}
	sim.Run()
}

func TestFailoverNoViablePlanRejectsGracefully(t *testing.T) {
	// Single-copy storage: the crashed site held the only replica, so
	// recovery must exhaust its budget and reject with ErrNoViablePlan —
	// not hang, not spin forever.
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.SingleCopyPolicy()); err != nil {
		t.Fatal(err)
	}
	m := failoverManager(c)

	var failedErr error
	d, err := m.Service("srv-a", 1, qos.Requirement{MinColorDepth: 8}, ServiceOptions{
		OnFailed: func(_ *Delivery, e error) { failedErr = e },
	})
	if err != nil {
		t.Fatal(err)
	}
	src := d.Plan.Replica.Site
	sim.ScheduleAt(simtime.Seconds(5), func() { c.Nodes[src].Fail() })
	sim.Run() // must terminate: the retry budget bounds recovery

	if failedErr == nil {
		t.Fatal("OnFailed not fired")
	}
	if !errors.Is(failedErr, ErrNoViablePlan) {
		t.Fatalf("err = %v, want ErrNoViablePlan", failedErr)
	}
	if !d.Failed() || !errors.Is(d.err, ErrNoViablePlan) {
		t.Fatalf("failed=%v err=%v", d.Failed(), d.err)
	}
	st := m.Stats()
	if st.FailoverRejects != 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FailoverRetries != MaxRetries {
		t.Fatalf("retries = %d, want the full budget %d", st.FailoverRetries, MaxRetries)
	}
	if c.OutstandingSessions() != 0 {
		t.Fatal("sessions leaked")
	}
}

// TestFailoverRetryBackoffDoubles pins the detector and the retry budget:
// with the only replica crashed, recovery starts DetectionDelay after the
// failure, retries MaxRetries times after waits of 0.5, 1 and 2 s, and then
// abandons the delivery.
func TestFailoverRetryBackoffDoubles(t *testing.T) {
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.SingleCopyPolicy()); err != nil {
		t.Fatal(err)
	}
	m := failoverManager(c)
	var abandoned []FailoverEvent
	m.SetFailoverObserver(func(ev FailoverEvent) { abandoned = append(abandoned, ev) })
	d, err := m.Service("srv-a", 1, qos.Requirement{MinColorDepth: 8}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crash := simtime.Seconds(5)
	sim.ScheduleAt(crash, func() { c.Nodes[d.Plan.Replica.Site].Fail() })
	var attempts []simtime.Time
	for n := uint64(0); sim.Step(); {
		if a := m.Stats().FailoverAttempts; a != n {
			n = a
			attempts = append(attempts, sim.Now()-crash)
		}
	}
	want := []simtime.Time{
		simtime.Seconds(0.2), simtime.Seconds(0.7), simtime.Seconds(1.7), simtime.Seconds(3.7),
	}
	if len(attempts) != len(want) {
		t.Fatalf("recovery attempts at %v after the crash, want %v", attempts, want)
	}
	for i := range want {
		if attempts[i] != want[i] {
			t.Fatalf("recovery attempts at %v after the crash, want %v", attempts, want)
		}
	}
	if st := m.Stats(); st.FailoverRetries != 3 || !d.Failed() {
		t.Fatalf("retries = %d, failed = %v; want 3 retries, then abandonment", st.FailoverRetries, d.Failed())
	}
	if len(abandoned) != 1 || abandoned[0].Attempts != 4 || abandoned[0].Err == nil {
		t.Fatalf("failover events = %+v, want one abandonment after 4 attempts", abandoned)
	}
}

func TestFailoverBestEffortFallback(t *testing.T) {
	// Saturate the cluster, then crash one site: its sessions fail over
	// into a cluster with no reserved headroom, so with the fallback
	// enabled at least some must degrade to unreserved best-effort streams
	// once their retries run out, instead of being rejected.
	sim, c := testCluster(t)
	m := NewManager(c, LRB{})
	m.EnableFailover(FailoverPolicy{BestEffortFallback: true})
	var deliveries, degraded []*Delivery
	// Recovery swaps a delivery's session and then notifies the observer,
	// so the one delivery whose session changed since the last event is the
	// one this event reports.
	seen := map[*Delivery]*transport.Session{}
	m.SetFailoverObserver(func(ev FailoverEvent) {
		if ev.Err != nil {
			t.Fatalf("with the fallback enabled nothing should be abandoned: %v", ev.Err)
		}
		var swapped []*Delivery
		for _, d := range deliveries {
			if d.Session != seen[d] {
				seen[d] = d.Session
				swapped = append(swapped, d)
			}
		}
		if len(swapped) != 1 {
			t.Fatalf("%d deliveries changed session before one failover event", len(swapped))
		}
		if ev.Degraded {
			degraded = append(degraded, swapped[0])
		}
	})

	top := qos.Requirement{MinResolution: qos.ResDVD, MinFrameRate: 23, MinColorDepth: 24}
	for i := 0; ; i++ {
		d, err := m.Service(c.Sites()[i%3], media.VideoID(1+i%15), top, ServiceOptions{})
		if err != nil {
			break
		}
		deliveries = append(deliveries, d)
		seen[d] = d.Session
	}
	if len(deliveries) < 3 {
		t.Fatalf("only %d deliveries admitted", len(deliveries))
	}
	sim.ScheduleAt(simtime.Seconds(5), func() { c.Nodes["srv-b"].Fail() })
	sim.RunUntil(simtime.Seconds(30))
	for _, d := range degraded {
		for _, l := range d.held {
			if l != nil {
				t.Fatal("degraded delivery still holds a lease")
			}
		}
	}
	st := m.Stats()
	if st.BestEffortFallbacks == 0 || len(degraded) == 0 {
		t.Fatalf("no best-effort fallbacks: stats = %+v", st)
	}
	if uint64(len(degraded)) != st.BestEffortFallbacks {
		t.Fatalf("degraded deliveries %d != counter %d", len(degraded), st.BestEffortFallbacks)
	}
}

func TestServiceDuringOutageAvoidsDownSites(t *testing.T) {
	_, c := testCluster(t)
	m := failoverManager(c)
	c.Nodes["srv-b"].Fail()

	// Querying the crashed site itself is a typed error.
	if _, err := m.Service("srv-b", 1, vcdRequirement(), ServiceOptions{}); !errors.Is(err, gara.ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	// Queries elsewhere route around the outage.
	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cancel()
	if d.Plan.DeliverySite == "srv-b" || d.Plan.Replica.Site == "srv-b" {
		t.Fatalf("plan touches the crashed site: %s", d.Plan)
	}
}

func TestFailoverDisabledAbandonsDelivery(t *testing.T) {
	sim, c := testCluster(t)
	m := NewManager(c, LRB{}) // failover NOT enabled
	var failedErr error
	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{
		OnFailed: func(_ *Delivery, e error) { failedErr = e },
	})
	if err != nil {
		t.Fatal(err)
	}
	origSite := d.Plan.DeliverySite
	sim.ScheduleAt(simtime.Seconds(5), func() { c.Nodes[origSite].Fail() })
	sim.Run()
	if !d.Failed() || failedErr == nil {
		t.Fatalf("failed=%v err=%v", d.Failed(), failedErr)
	}
	if !errors.Is(failedErr, ErrNoViablePlan) || !errors.Is(failedErr, gara.ErrLeaseRevoked) ||
		!errors.Is(failedErr, gara.ErrNodeDown) {
		t.Fatalf("err = %v, want the full taxonomy chain", failedErr)
	}
	if c.OutstandingSessions() != 0 {
		t.Fatal("sessions leaked")
	}
}

func TestRenegotiateDowngrade(t *testing.T) {
	sim, c := testCluster(t)
	m := NewManager(c, LRB{})
	d, err := m.Service("srv-a", 1, qos.Requirement{MinResolution: qos.ResDVD, MinColorDepth: 24}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(simtime.Seconds(10))
	before := d.Session.Position()
	low := vcdRequirement()
	nd, err := m.Renegotiate(d, low, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !low.SatisfiedBy(nd.Plan.Delivered) {
		t.Fatalf("downgraded plan delivers %v, violating %v", nd.Plan.Delivered, low)
	}
	if nd.Plan.Delivered.Resolution.AtLeast(qos.ResDVD) {
		t.Fatalf("renegotiation kept the DVD tier: %v", nd.Plan.Delivered)
	}
	// The new session resumes on the GOP boundary at or before the old
	// position.
	if pos := nd.Session.Position(); pos < before-d.Video().GOP.Len() {
		t.Fatalf("downgrade resumed at frame %d, want near %d", pos, before)
	}
	sim.Run()
}

func TestRenegotiateAfterSourceFailure(t *testing.T) {
	// A link partition kills the session (the node itself stays up, so the
	// query site remains valid); inside the failure detector's lag, before
	// its recovery fires, the user renegotiates. The pending recovery must
	// be cancelled and the new delivery resume from the dead session's
	// position.
	sim, c := testCluster(t)
	m := failoverManager(c)

	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	origSite := d.Plan.DeliverySite
	sim.ScheduleAt(simtime.Seconds(10), func() { c.Nodes[origSite].Link().Partition() })
	sim.RunUntil(simtime.Seconds(10) + DetectionDelay/2)
	if !d.Recovering() {
		t.Fatal("delivery not in recovery after the crash")
	}
	before := d.Session.Position()

	nd, err := m.Renegotiate(d, vcdRequirement(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Plan.DeliverySite == origSite {
		t.Fatal("renegotiated onto the crashed site")
	}
	if pos := nd.Session.Position(); pos < before-d.Video().GOP.Len() {
		t.Fatalf("renegotiation resumed at frame %d, want near %d", pos, before)
	}
	if d.Recovering() {
		t.Fatal("pending recovery not cancelled by renegotiation")
	}
	sim.Run() // the cancelled recovery event must not fire or hang
	if st := m.Stats(); st.Failovers != 0 {
		t.Fatalf("recovery ran anyway: %+v", st)
	}
	if c.OutstandingSessions() != 0 {
		t.Fatal("sessions leaked")
	}
}

func TestRenegotiateAbandonedDeliveryFails(t *testing.T) {
	sim, c := testCluster(t)
	m := NewManager(c, LRB{}) // no failover: the crash abandons the delivery
	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	origSite := d.Plan.DeliverySite
	sim.ScheduleAt(simtime.Seconds(5), func() { c.Nodes[origSite].Fail() })
	sim.RunUntil(simtime.Seconds(6))
	if _, err := m.Renegotiate(d, vcdRequirement(), ServiceOptions{}); err == nil {
		t.Fatal("renegotiating an abandoned delivery succeeded")
	}
}
