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

// Control-plane extensions of the rejection error chains: when the two-phase
// reservation fails at the transport rather than at a resource, the
// rejection must carry ErrControlTimeout (wrapped under ErrRejected) so
// callers can tell "the cluster said no" from "the cluster never answered".

// singleCopyCtrlWorld builds a cluster whose video 1 lives on exactly one
// site, switches the control plane to testbed message passing, and returns a
// query site that is NOT the replica site — so every admission needs at
// least one cross-site control exchange.
func singleCopyCtrlWorld(t *testing.T) (*simtime.Simulator, *Cluster, *Manager, string, string) {
	t.Helper()
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.SingleCopyPolicy()); err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(c.Dir, DefaultGeneratorConfig(c.Capacity()))
	v, err := c.Engine.Video(1)
	if err != nil {
		t.Fatal(err)
	}
	plans := gen.GenerateAll("srv-a", v, qos.Requirement{MinColorDepth: 8})
	if len(plans) == 0 {
		t.Fatal("no plans for video 1")
	}
	replicaSite := plans[0].Replica.Site
	querySite := ""
	for _, s := range c.Sites() {
		if s != replicaSite {
			querySite = s
			break
		}
	}
	if querySite == "" {
		t.Fatalf("all sites host the single copy (replica at %s)", replicaSite)
	}
	if err := c.ConfigureControl(broker.TestbedConfig()); err != nil {
		t.Fatal(err)
	}
	return sim, c, NewManager(c, LRB{}), querySite, replicaSite
}

// assertNoLeakedLeases checks that after the control-plane dust settles no
// site holds a lease or a pending prepared transaction.
func assertNoLeakedLeases(t *testing.T, c *Cluster) {
	t.Helper()
	for _, s := range c.Sites() {
		leases := liveLeases(t, c.Nodes[s])
		prepared := c.Obs.Gauge("gara_leases_prepared_live", "site", s).Value()
		if leases != 0 || prepared != 0 || c.Brokers[s].PendingPrepares() != 0 {
			t.Fatalf("%s leaked reservation state: leases=%d prepared=%d pending=%d",
				s, leases, prepared, c.Brokers[s].PendingPrepares())
		}
	}
}

func TestSyncServiceUnderAsyncControlErrors(t *testing.T) {
	_, c := testCluster(t)
	if err := c.ConfigureControl(broker.TestbedConfig()); err != nil {
		t.Fatal(err)
	}
	m := NewManager(c, LRB{})
	if _, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{}); !errors.Is(err, ErrAsyncControl) {
		t.Fatalf("sync Service under async control: err = %v, want ErrAsyncControl", err)
	}
}

func TestRejectionWrapsControlTimeout(t *testing.T) {
	// Partition the only replica's site before the query arrives: every plan
	// needs a cross-site PREPARE to it, every attempt exhausts the retry
	// budget, and the rejection's cause chain must say so.
	sim, c, m, querySite, replicaSite := singleCopyCtrlWorld(t)
	c.Nodes[replicaSite].Link().Partition()

	var got error
	settled := false
	m.ServiceAsync(querySite, 1, qos.Requirement{MinColorDepth: 8}, ServiceOptions{},
		func(_ *Delivery, err error) {
			settled = true
			got = err
		})
	sim.Run()

	if !settled {
		t.Fatal("admission never settled")
	}
	if got == nil {
		t.Fatal("admission succeeded across a partition")
	}
	if !errors.Is(got, ErrRejected) {
		t.Fatalf("err = %v, want core.ErrRejected", got)
	}
	if !errors.Is(got, ErrControlTimeout) {
		t.Fatalf("err = %v, want ErrControlTimeout in the chain", got)
	}
	assertNoLeakedLeases(t, c)
}

func TestPartitionDuringCommitAbortsWithoutLeakedLeases(t *testing.T) {
	// Let the cross-site PREPAREs land, then cut the replica site while the
	// COMMITs are in flight (testbed latency 5 ms: remote prepare delivered
	// at 5 ms, remote commit not before 15 ms). The coordinator must roll
	// back, the cut broker's orphaned prepare must die by TTL, and no lease
	// may survive anywhere.
	sim, c, m, querySite, replicaSite := singleCopyCtrlWorld(t)
	sim.ScheduleAt(simtime.Seconds(0.011), func() { c.Nodes[replicaSite].Link().Partition() })

	var got error
	settled := false
	m.ServiceAsync(querySite, 1, qos.Requirement{MinColorDepth: 8}, ServiceOptions{},
		func(_ *Delivery, err error) {
			settled = true
			got = err
		})
	sim.Run()

	if !settled {
		t.Fatal("admission never settled")
	}
	if got == nil {
		t.Fatal("admission succeeded through a partition during commit")
	}
	if !errors.Is(got, ErrRejected) || !errors.Is(got, ErrControlTimeout) {
		t.Fatalf("err = %v, want ErrRejected and ErrControlTimeout in the chain", got)
	}
	assertNoLeakedLeases(t, c)
}
