package broker

import (
	"errors"
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

func twoParts() []Participant {
	return []Participant{
		{Site: "a", Name: "v", Vec: demand(), Period: simtime.Seconds(1.0 / 25)},
		{Site: "b", Name: "v-relay", Vec: demand(), Period: simtime.Seconds(1.0 / 25)},
	}
}

func TestCoordinatorSyncReserveCommitsInline(t *testing.T) {
	w := newWorld(t, Config{})
	co := NewCoordinator(w.net, w.reg)
	before := w.sim.Executed()
	var got []*gara.Lease
	co.Reserve("a", twoParts(), nil, func(ls []*gara.Lease, err error) {
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		got = ls
	})
	if got == nil {
		t.Fatal("synchronous reserve did not complete inline")
	}
	w.sim.Run()
	if w.sim.Executed() != before {
		t.Fatal("synchronous reserve scheduled events")
	}
	for _, s := range []string{"a", "b"} {
		if w.leasesLive(t, s) != 1 || w.preparedLive(t, s) != 0 {
			t.Fatalf("%s: leases=%d prepared=%d", s, w.leasesLive(t, s), w.preparedLive(t, s))
		}
	}
}

func TestCoordinatorPrepareNackPassesRefusalThrough(t *testing.T) {
	w := newWorld(t, Config{})
	co := NewCoordinator(w.net, w.reg)
	// Saturate b so its admission control refuses the relay prepare.
	var huge qos.ResourceVector
	huge[qos.ResNetBandwidth] = w.nodes["b"].Capacity()[qos.ResNetBandwidth]
	if _, err := w.nodes["b"].Reserve("hog", huge, simtime.Seconds(0.04)); err != nil {
		t.Fatal(err)
	}
	var got error
	co.Reserve("a", twoParts(), nil, func(ls []*gara.Lease, err error) { got = err })
	if !errors.Is(got, gara.ErrRejected) {
		t.Fatalf("err = %v, want the node's own ErrRejected chain unwrapped", got)
	}
	// The already-prepared leg at a was aborted; only the hog remains at b.
	if w.leasesLive(t, "a") != 0 {
		t.Fatalf("a leaked %d leases after rollback", w.leasesLive(t, "a"))
	}
	if w.leasesLive(t, "b") != 1 || w.bks["b"].PendingPrepares() != 0 {
		t.Fatalf("b: leases=%d pending=%d", w.leasesLive(t, "b"), w.bks["b"].PendingPrepares())
	}
}

func TestCoordinatorAsyncReserveCommits(t *testing.T) {
	w := newWorld(t, TestbedConfig())
	co := NewCoordinator(w.net, w.reg)
	var got []*gara.Lease
	var at simtime.Time
	co.Reserve("a", twoParts(), nil, func(ls []*gara.Lease, err error) {
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		got, at = ls, w.sim.Now()
	})
	if got != nil {
		t.Fatal("async reserve completed inline")
	}
	w.sim.Run()
	if got == nil {
		t.Fatal("async reserve never completed")
	}
	// Same-site legs (a→a) are free; the two cross-site round trips
	// (prepare b, commit b) cost 2 × 2 × 5 ms.
	if want := simtime.Seconds(0.020); at != want {
		t.Fatalf("committed at %v, want %v", at, want)
	}
	for _, s := range []string{"a", "b"} {
		if w.leasesLive(t, s) != 1 || w.preparedLive(t, s) != 0 {
			t.Fatalf("%s: leases=%d prepared=%d", s, w.leasesLive(t, s), w.preparedLive(t, s))
		}
		if w.bks[s].PendingPrepares() != 0 {
			t.Fatalf("%s left pending prepares", s)
		}
	}
}

// TestPartitionDuringPrepareLeavesNoOrphan is the chaos acceptance case:
// the PREPARE reaches the remote broker, but the coordinator's site is
// partitioned while the ack is in flight. Retries and the rollback ABORT
// are all eaten by the partition, so the remote prepared lease can only be
// reclaimed by its TTL — and it is, leaving nothing behind.
func TestPartitionDuringPrepareLeavesNoOrphan(t *testing.T) {
	cfg := TestbedConfig()
	w := newWorld(t, cfg)
	co := NewCoordinator(w.net, w.reg)

	// Cut the coordinator's site after the prepare has been sent (t=0) but
	// before its ack can arrive (t=10 ms): the request is already in flight
	// and will be delivered at b, the reply will be dropped.
	w.sim.Schedule(simtime.Seconds(0.002), func() { w.cut["a"] = true })

	var got error
	fired := false
	co.Reserve("a", twoParts(), nil, func(ls []*gara.Lease, err error) {
		fired = true
		got = err
		if ls != nil {
			t.Fatal("partitioned reserve returned leases")
		}
	})

	// By just after the prepare delivery, b must be holding the orphan.
	w.sim.RunUntil(simtime.Seconds(0.006))
	if w.leasesLive(t, "b") != 1 || w.bks["b"].PendingPrepares() != 1 {
		t.Fatalf("prepare not delivered: leases=%d pending=%d",
			w.leasesLive(t, "b"), w.bks["b"].PendingPrepares())
	}

	w.sim.Run()
	if !fired {
		t.Fatal("reserve never settled")
	}
	if !errors.Is(got, ErrControlTimeout) {
		t.Fatalf("err = %v, want ErrControlTimeout", got)
	}
	for _, s := range []string{"a", "b"} {
		if w.leasesLive(t, s) != 0 || w.preparedLive(t, s) != 0 {
			t.Fatalf("%s leaked: leases=%d prepared=%d", s, w.leasesLive(t, s), w.preparedLive(t, s))
		}
		if w.bks[s].PendingPrepares() != 0 {
			t.Fatalf("%s: %d pending prepares after TTL", s, w.bks[s].PendingPrepares())
		}
	}
	if exp := counterValue(t, w.reg, "quasaq_ctrl_orphans_expired_total", map[string]string{"site": "b"}); exp != 1 {
		t.Fatalf("orphans_expired at b = %d, want 1", exp)
	}
}

// A partition that opens between the prepare and commit phases starves the
// COMMIT's retry budget; the coordinator rolls the whole transaction back
// and no lease survives anywhere.
func TestPartitionDuringCommitRollsBack(t *testing.T) {
	cfg := TestbedConfig()
	w := newWorld(t, cfg)
	co := NewCoordinator(w.net, w.reg)

	// Prepares complete by t=10 ms (one cross-site round trip); cut b just
	// after, so every COMMIT attempt to b is dropped at send.
	w.sim.Schedule(simtime.Seconds(0.011), func() { w.cut["b"] = true })

	var got error
	co.Reserve("a", twoParts(), nil, func(ls []*gara.Lease, err error) { got = err })
	w.sim.Run()
	if !errors.Is(got, ErrControlTimeout) {
		t.Fatalf("err = %v, want ErrControlTimeout", got)
	}
	for _, s := range []string{"a", "b"} {
		if w.leasesLive(t, s) != 0 || w.bks[s].PendingPrepares() != 0 {
			t.Fatalf("%s leaked after commit rollback: leases=%d pending=%d",
				s, w.leasesLive(t, s), w.bks[s].PendingPrepares())
		}
	}
	if rb := counterValue(t, w.reg, "quasaq_ctrl_rollbacks_total", nil); rb != 1 {
		t.Fatalf("rollbacks = %d, want 1", rb)
	}
}

// Message loss alone (no partition) is survivable: with a loss rate under
// the retry budget the reservation usually still commits, and when it does
// not, nothing leaks. Determinism: same seed, same outcome.
func TestCoordinatorUnderLoss(t *testing.T) {
	cfg := TestbedConfig()
	cfg.Loss = 0.2
	cfg.Seed = 7
	run := func() (ok bool, leases [2]int64) {
		w := newWorld(t, cfg)
		co := NewCoordinator(w.net, w.reg)
		var got error
		fired := false
		co.Reserve("a", twoParts(), nil, func(ls []*gara.Lease, err error) { fired, got = true, err })
		w.sim.Run()
		if !fired {
			t.Fatal("reserve never settled under loss")
		}
		return got == nil, [2]int64{w.leasesLive(t, "a"), w.leasesLive(t, "b")}
	}
	ok1, l1 := run()
	ok2, l2 := run()
	if ok1 != ok2 || l1 != l2 {
		t.Fatalf("same seed diverged: (%v %v) vs (%v %v)", ok1, l1, ok2, l2)
	}
	if ok1 {
		if l1 != [2]int64{1, 1} {
			t.Fatalf("committed but leases = %v", l1)
		}
	} else if l1 != [2]int64{0, 0} {
		t.Fatalf("rolled back but leases = %v", l1)
	}
}

// With no PrepareTTL configured, a PREPARE whose coordinator goes silent is
// held (Retries+2) x Timeout from its arrival and released then, not
// before: long enough to outlive every retry, short enough not to strand
// capacity.
func TestDefaultPrepareTTLReleasesOrphanOnTime(t *testing.T) {
	const retries = 1
	latency := simtime.Seconds(0.005)
	w := newWorld(t, Config{Latency: latency, Retries: retries})
	co := NewCoordinator(w.net, w.reg)
	parts := []Participant{{Site: "b", Name: "v", Vec: demand(), Period: simtime.Seconds(1.0 / 25)}}
	var rerr error
	co.Reserve("a", parts, nil, func(_ []*gara.Lease, err error) { rerr = err })
	for w.preparedLive(t, "b") == 0 {
		if !w.sim.Step() {
			t.Fatal("the prepare never reached b")
		}
	}
	// Cut the coordinator's site off the moment the prepare lands: the ack,
	// every retry and the abort are lost, and the coordinator never holds
	// the lease, so only b's TTL can free it.
	w.cut["a"] = true
	release := w.sim.Now() + simtime.Time(retries+2)*4*latency // Timeout defaults to 4 x Latency
	w.sim.RunUntil(release - 1)
	if w.leasesLive(t, "b") != 1 {
		t.Fatalf("orphan released before (Retries+2) x Timeout, at or before %v", release-1)
	}
	w.sim.RunUntil(release)
	if w.leasesLive(t, "b") != 0 || w.bks["b"].PendingPrepares() != 0 {
		t.Fatalf("orphan still held at %v: leases=%d pending=%d",
			release, w.leasesLive(t, "b"), w.bks["b"].PendingPrepares())
	}
	w.sim.Run()
	if !errors.Is(rerr, ErrControlTimeout) {
		t.Fatalf("reserve err = %v, want ErrControlTimeout", rerr)
	}
}
