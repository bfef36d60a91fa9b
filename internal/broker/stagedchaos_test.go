package broker

import (
	"errors"
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/simtime"
)

// threeParts is a staged plan's reservation list: delivery leg, source
// relay, and the farm's transcode stage — the multi-participant transaction
// a staged plan hands the coordinator.
func threeParts() []Participant {
	return []Participant{
		{Site: "a", Name: "v", Vec: demand(), Period: simtime.Seconds(1.0 / 25)},
		{Site: "b", Name: "v-relay", Vec: demand(), Period: simtime.Seconds(1.0 / 25)},
		{Site: "c", Name: "v-transcode", Vec: demand(), Period: simtime.Seconds(1.0 / 25)},
	}
}

// addSite extends the two-site test world with a third broker-fronted node
// (the farm pseudo-site of a staged reservation).
func addSite(w *world, name string) {
	n := gara.NewNode(w.sim, name, gara.DefaultCapacity())
	n.Instrument(w.reg)
	w.nodes[name] = n
	b := New(w.sim, n, w.reg)
	w.bks[name] = b
	w.net.Register(name, b.Handle)
}

// TestStagedReserveCommitsAllThreeStages is the happy path: one staged
// transaction, three legs, all-or-nothing commit.
func TestStagedReserveCommitsAllThreeStages(t *testing.T) {
	w := newWorld(t, TestbedConfig())
	addSite(w, "c")
	co := NewCoordinator(w.net, w.reg)
	var got []*gara.Lease
	co.Reserve("a", threeParts(), nil, func(ls []*gara.Lease, err error) {
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		got = ls
	})
	w.sim.Run()
	if len(got) != 3 {
		t.Fatalf("got %d leases, want 3", len(got))
	}
	for _, s := range []string{"a", "b", "c"} {
		if w.leasesLive(t, s) != 1 || w.preparedLive(t, s) != 0 {
			t.Fatalf("%s: leases=%d prepared=%d", s, w.leasesLive(t, s), w.preparedLive(t, s))
		}
		if w.bks[s].PendingPrepares() != 0 {
			t.Fatalf("%s left pending prepares", s)
		}
	}
}

// TestPartitionDuringStagedPrepareLeavesNoOrphan is the staged-plan chaos
// acceptance case: the coordinator's site partitions while the third
// stage's PREPARE ack is in flight, after the second stage has already
// prepared. Retries and the rollback ABORTs are all eaten by the
// partition, so BOTH remote prepared stages are orphaned — and both are
// reclaimed by their TTLs, leaving no stage lease behind anywhere.
func TestPartitionDuringStagedPrepareLeavesNoOrphan(t *testing.T) {
	w := newWorld(t, TestbedConfig())
	addSite(w, "c")
	co := NewCoordinator(w.net, w.reg)

	// Sequential prepares at 5 ms one-way latency: leg a is local and
	// free, leg b prepares at 5 ms and acks at 10 ms, leg c's prepare goes
	// out at 10 ms and is delivered at 15 ms. Cutting a at 12 ms lets c's
	// prepare through but drops its ack — and eats every retry and the
	// rollback ABORTs for both remote legs.
	w.sim.Schedule(simtime.Seconds(0.012), func() { w.cut["a"] = true })

	var got error
	fired := false
	co.Reserve("a", threeParts(), nil, func(ls []*gara.Lease, err error) {
		fired = true
		got = err
		if ls != nil {
			t.Fatal("partitioned staged reserve returned leases")
		}
	})

	// Just after c's prepare delivery both remote stages must be holding
	// prepared leases the coordinator can no longer reach.
	w.sim.RunUntil(simtime.Seconds(0.016))
	if w.leasesLive(t, "b") != 1 || w.bks["b"].PendingPrepares() != 1 {
		t.Fatalf("b's stage not prepared: leases=%d pending=%d",
			w.leasesLive(t, "b"), w.bks["b"].PendingPrepares())
	}
	if w.leasesLive(t, "c") != 1 || w.bks["c"].PendingPrepares() != 1 {
		t.Fatalf("c's stage not prepared: leases=%d pending=%d",
			w.leasesLive(t, "c"), w.bks["c"].PendingPrepares())
	}

	w.sim.Run()
	if !fired {
		t.Fatal("staged reserve never settled")
	}
	if !errors.Is(got, ErrControlTimeout) {
		t.Fatalf("err = %v, want ErrControlTimeout", got)
	}
	for _, s := range []string{"a", "b", "c"} {
		if w.leasesLive(t, s) != 0 || w.preparedLive(t, s) != 0 {
			t.Fatalf("%s leaked a stage lease: leases=%d prepared=%d",
				s, w.leasesLive(t, s), w.preparedLive(t, s))
		}
		if w.bks[s].PendingPrepares() != 0 {
			t.Fatalf("%s: %d pending prepares after TTL", s, w.bks[s].PendingPrepares())
		}
	}
	for _, s := range []string{"b", "c"} {
		if exp := counterValue(t, w.reg, "quasaq_ctrl_orphans_expired_total", map[string]string{"site": s}); exp != 1 {
			t.Fatalf("orphans_expired at %s = %d, want 1", s, exp)
		}
	}
}
