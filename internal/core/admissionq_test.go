package core

import (
	"errors"
	"testing"

	"quasaq/internal/broker"
	"quasaq/internal/media"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
)

func TestConfigureAdmissionQueueValidation(t *testing.T) {
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	m := NewManager(c, LRB{})
	if err := m.ConfigureAdmissionQueue(AdmissionQueueConfig{MaxQueue: 4}); err == nil {
		t.Fatal("queue without MaxInFlight accepted")
	}
	if err := m.ConfigureAdmissionQueue(AdmissionQueueConfig{MaxInFlight: 1, MaxQueue: -1}); err == nil {
		t.Fatal("negative MaxQueue accepted")
	}
	if err := m.ConfigureAdmissionQueue(AdmissionQueueConfig{MaxInFlight: 2, MaxQueue: 4, Deadline: simtime.Seconds(1)}); err != nil {
		t.Fatal(err)
	}
	// The zero config removes the queue again.
	if err := m.ConfigureAdmissionQueue(AdmissionQueueConfig{}); err != nil {
		t.Fatal(err)
	}
	if m.aq != nil {
		t.Fatal("zero config left the queue installed")
	}
}

// queueWorld builds an async-control cluster and returns a query site that
// is NOT video 1's replica site, so every admission pipeline pays control
// round trips of nonzero virtual time — making queue slots genuinely busy.
func queueWorld(t *testing.T, cfg AdmissionQueueConfig) (*simtime.Simulator, *Manager, string) {
	t.Helper()
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.SingleCopyPolicy()); err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(c.Dir, c.Capacity())
	v, err := c.Engine.Video(1)
	if err != nil {
		t.Fatal(err)
	}
	plans := gen.GenerateAll("srv-a", v, qos.Requirement{MinColorDepth: 8})
	if len(plans) == 0 {
		t.Fatal("no plans for video 1")
	}
	querySite := ""
	for _, s := range c.Sites() {
		if s != plans[0].Replica.Site {
			querySite = s
			break
		}
	}
	if querySite == "" {
		t.Fatal("all sites host the single copy")
	}
	if err := c.ConfigureControl(broker.TestbedConfig()); err != nil {
		t.Fatal(err)
	}
	m := NewManager(c, LRB{})
	if err := m.ConfigureAdmissionQueue(cfg); err != nil {
		t.Fatal(err)
	}
	return sim, m, querySite
}

func TestAdmissionQueueExpiresWaitersPastDeadline(t *testing.T) {
	sim, m, qsite := queueWorld(t, AdmissionQueueConfig{
		MaxInFlight: 1,
		MaxQueue:    8,
		Deadline:    simtime.Seconds(0.001), // shorter than one control round trip
	})
	req := qos.Requirement{MinColorDepth: 8}
	errs := make([]error, 3)
	for i := range errs {
		i := i
		m.ServiceAsync(qsite, 1, req, ServiceOptions{}, func(_ *Delivery, err error) { errs[i] = err })
	}
	sim.Run()
	// The first admission takes the slot; with a 1 ms deadline and ≥10 ms
	// round trips, both waiters expire before it concludes.
	if errs[0] != nil && !errors.Is(errs[0], ErrRejected) {
		t.Fatalf("first admission err = %v", errs[0])
	}
	for i := 1; i < 3; i++ {
		if !errors.Is(errs[i], ErrAdmissionDeadline) {
			t.Fatalf("waiter %d err = %v, want ErrAdmissionDeadline", i, errs[i])
		}
	}
}

func TestAdmissionQueueDropsOldestWhenFull(t *testing.T) {
	sim, m, qsite := queueWorld(t, AdmissionQueueConfig{
		MaxInFlight: 1,
		MaxQueue:    1, // one waiter: a second arrival displaces the first
	})
	req := qos.Requirement{MinColorDepth: 8}
	var settled []int
	errs := make([]error, 3)
	for i := range errs {
		i := i
		m.ServiceAsync(qsite, 1, req, ServiceOptions{}, func(_ *Delivery, err error) {
			settled = append(settled, i)
			errs[i] = err
		})
	}
	// Request 0 runs, request 1 queues, request 2 displaces request 1 —
	// synchronously at submit time, before any virtual time passes.
	if len(settled) != 1 || settled[0] != 1 {
		t.Fatalf("settled at submit = %v, want [1] (displaced oldest waiter)", settled)
	}
	if !errors.Is(errs[1], ErrAdmissionDeadline) {
		t.Fatalf("displaced err = %v, want ErrAdmissionDeadline", errs[1])
	}
	sim.Run()
	if len(settled) != 3 {
		t.Fatalf("settled = %v, want all three", settled)
	}
	// The survivor (2) ran after the first finished, FIFO from the queue.
	if settled[1] != 0 || settled[2] != 2 {
		t.Fatalf("completion order = %v, want [1 0 2]", settled)
	}
	if errs[0] != nil && !errors.Is(errs[0], ErrRejected) {
		t.Fatalf("first err = %v", errs[0])
	}
	if errs[2] != nil && !errors.Is(errs[2], ErrRejected) {
		t.Fatalf("survivor err = %v", errs[2])
	}
}

func TestAdmissionQueueDisabledQueueFailsAtArrival(t *testing.T) {
	sim, m, qsite := queueWorld(t, AdmissionQueueConfig{MaxInFlight: 1})
	req := qos.Requirement{MinColorDepth: 8}
	var second error
	m.ServiceAsync(qsite, 1, req, ServiceOptions{}, func(*Delivery, error) {})
	m.ServiceAsync(qsite, 1, req, ServiceOptions{}, func(_ *Delivery, err error) { second = err })
	if !errors.Is(second, ErrAdmissionDeadline) {
		t.Fatalf("no-wait-line overflow err = %v, want ErrAdmissionDeadline", second)
	}
	sim.Run()
}

func TestAdmissionQueueDispatchesFIFOWithinSlots(t *testing.T) {
	sim, m, qsite := queueWorld(t, AdmissionQueueConfig{
		MaxInFlight: 1,
		MaxQueue:    4,
		Deadline:    simtime.Seconds(30),
	})
	req := qos.Requirement{MinColorDepth: 8}
	var order []int
	n := 4
	for i := 0; i < n; i++ {
		i := i
		m.ServiceAsync(qsite, 1, req, ServiceOptions{}, func(*Delivery, error) { order = append(order, i) })
	}
	sim.Run()
	if len(order) != n {
		t.Fatalf("settled %d of %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order = %v, want FIFO", order)
		}
	}
}

// expiryDisplacementWorld builds a queue with one always-busy slot and one
// wait-line seat, so a queued item A and a later arrival C reproduce the
// expiry-during-displacement interleaving at a single instant.
func expiryDisplacementWorld(t *testing.T, d simtime.Time) (*simtime.Simulator, *admissionQueue) {
	t.Helper()
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	m := NewManager(c, LRB{})
	if err := m.ConfigureAdmissionQueue(AdmissionQueueConfig{MaxInFlight: 1, MaxQueue: 1, Deadline: d}); err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot for the whole test so nothing dequeues.
	m.aq.submit(func(func(*Delivery, error)) {}, func(*Delivery, error) {
		t.Fatal("slot occupant concluded")
	})
	return sim, m.aq
}

// TestAdmissionQueueExpiryDuringDisplacementCountsOnce pins the invariant
// from the concurrency sweep: a request that expires at the very instant a
// drop-oldest displacement reaches it concludes exactly once — one finish
// call (hence one arrival-to-decision latency observation upstream) and one
// increment across the expired/dropped counters, never both — in either
// order the two same-instant events can fire.
func TestAdmissionQueueExpiryDuringDisplacementCountsOnce(t *testing.T) {
	d := simtime.Seconds(1)

	// Order 1: A's deadline timer is scheduled before the displacing
	// arrival, so at instant d the expiry fires first.
	sim, aq := expiryDisplacementWorld(t, d)
	finishes := 0
	var errA error
	aq.submit(func(func(*Delivery, error)) {
		t.Fatal("A must never reach a slot")
	}, func(_ *Delivery, err error) { finishes++; errA = err })
	sim.Schedule(d, func() {
		aq.submit(func(func(*Delivery, error)) {}, func(*Delivery, error) {})
	})
	// Snapshot the counters just after the contested instant: the displacing
	// arrival C has its own deadline and would expire later in the run.
	var expired, dropped uint64
	sim.Schedule(d+1, func() { expired, dropped = aq.mExpired.Value(), aq.mDropped.Value() })
	sim.Run()
	if finishes != 1 {
		t.Fatalf("expiry-first: A finished %d times, want exactly 1", finishes)
	}
	if !errors.Is(errA, ErrAdmissionDeadline) {
		t.Fatalf("expiry-first: err = %v, want ErrAdmissionDeadline", errA)
	}
	if expired+dropped != 1 || expired != 1 {
		t.Fatalf("expiry-first: expired=%d dropped=%d, want exactly one expiry", expired, dropped)
	}

	// Order 2: the displacing arrival's event is scheduled before A exists,
	// so at instant d the displacement runs first and the (canceled) timer
	// must not conclude A a second time.
	sim, aq = expiryDisplacementWorld(t, d)
	finishes = 0
	sim.Schedule(d, func() {
		aq.submit(func(func(*Delivery, error)) {}, func(*Delivery, error) {})
	})
	aq.submit(func(func(*Delivery, error)) {
		t.Fatal("A must never reach a slot")
	}, func(_ *Delivery, err error) { finishes++; errA = err })
	sim.Schedule(d+1, func() { expired, dropped = aq.mExpired.Value(), aq.mDropped.Value() })
	sim.Run()
	if finishes != 1 {
		t.Fatalf("displacement-first: A finished %d times, want exactly 1", finishes)
	}
	if !errors.Is(errA, ErrAdmissionDeadline) {
		t.Fatalf("displacement-first: err = %v, want ErrAdmissionDeadline", errA)
	}
	if expired+dropped != 1 || dropped != 1 {
		t.Fatalf("displacement-first: expired=%d dropped=%d, want exactly one drop", expired, dropped)
	}
}
