package core

import (
	"errors"
	"testing"

	"quasaq/internal/cpusched"
	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/netsim"
	"quasaq/internal/qos"
	"quasaq/internal/replication"
	"quasaq/internal/simtime"
)

// Satellite coverage for the rejection error chains: ErrRejected must wrap
// the most specific per-resource cause so callers can distinguish "link
// partitioned" from "bandwidth exhausted" from "CPU admission" with
// errors.Is instead of string matching.

func TestServiceQuerySiteDownWrapsNodeDown(t *testing.T) {
	_, c := testCluster(t)
	m := NewManager(c, LRB{})
	c.Nodes["srv-a"].Fail()
	_, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
	if err == nil {
		t.Fatal("query on a down site admitted")
	}
	if !errors.Is(err, gara.ErrNodeDown) {
		t.Fatalf("err = %v, want gara.ErrNodeDown in the chain", err)
	}
	if errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v: a down query site is not an admission rejection", err)
	}
}

func TestRejectionWrapsSpecificCause(t *testing.T) {
	cases := []struct {
		name   string
		induce func(c *Cluster)
		want   error
	}{
		{
			name: "bandwidth exhausted",
			induce: func(c *Cluster) {
				// Pin every outbound link at full reservation: admission
				// fails at the network leg with ErrInsufficientBandwidth.
				for _, n := range c.Nodes {
					if _, err := n.Link().Reserve(n.Link().Available()); err != nil {
						panic(err)
					}
				}
			},
			want: netsim.ErrInsufficientBandwidth,
		},
		{
			name: "link partitioned",
			induce: func(c *Cluster) {
				// Nodes stay up, so plans remain viable and reservation is
				// reached — and fails with ErrLinkDown.
				for _, n := range c.Nodes {
					n.Link().Partition()
				}
			},
			want: netsim.ErrLinkDown,
		},
		{
			name: "cpu admission",
			induce: func(c *Cluster) {
				for _, n := range c.Nodes {
					n.CPU().SetMaxUtilization(0)
				}
			},
			want: cpusched.ErrAdmission,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, c := testCluster(t)
			m := NewManager(c, LRB{})
			tc.induce(c)
			_, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
			if err == nil {
				t.Fatal("saturated cluster admitted the query")
			}
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("err = %v, want core.ErrRejected", err)
			}
			if !errors.Is(err, gara.ErrRejected) {
				t.Fatalf("err = %v, want gara.ErrRejected in the chain", err)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v in the chain", err, tc.want)
			}
		})
	}
}

func TestAbandonedDeliveryCarriesCrashCause(t *testing.T) {
	// Single-copy storage, crash the only replica: the abandonment error
	// must expose both the planning outcome (ErrNoViablePlan) and the
	// original fault (ErrNodeDown) through errors.Is.
	sim := simtime.NewSimulator()
	c := TestbedCluster(sim)
	if _, err := c.LoadCorpus(media.StandardCorpus(42), replication.SingleCopyPolicy()); err != nil {
		t.Fatal(err)
	}
	m := NewManager(c, LRB{})
	pol := DefaultFailoverPolicy()
	pol.MaxRetries = 1
	m.EnableFailover(pol)

	d, err := m.Service("srv-a", 1, qos.Requirement{MinColorDepth: 8}, ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src := d.Plan.Replica.Site
	sim.ScheduleAt(simtime.Seconds(5), func() { c.Nodes[src].Fail() })
	sim.Run()

	if !d.Failed() {
		t.Fatal("delivery not abandoned")
	}
	ferr := d.err
	if !errors.Is(ferr, ErrNoViablePlan) {
		t.Fatalf("err = %v, want ErrNoViablePlan", ferr)
	}
	if !errors.Is(ferr, gara.ErrNodeDown) {
		t.Fatalf("err = %v, want the original crash fault (gara.ErrNodeDown) in the chain", ferr)
	}
}

func TestAbandonedDeliveryCarriesRevocationCause(t *testing.T) {
	// An operator revocation kills the session; every recovery attempt is
	// then starved of bandwidth so the budget drains. The abandonment error
	// must carry ErrNoViablePlan, the revocation fault, and the last
	// admission cause all at once.
	sim, c := testCluster(t)
	m := failoverManager(c)

	d, err := m.Service("srv-a", 1, vcdRequirement(), ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim.ScheduleAt(simtime.Seconds(5), func() {
		for _, n := range c.Nodes {
			n.RevokeOldestLease(nil) // only the delivery node holds a lease
		}
		// The revocation freed the session's bandwidth; pin every link so
		// each retry's reservation fails.
		for _, n := range c.Nodes {
			if avail := n.Link().Available(); avail > 0 {
				if _, err := n.Link().Reserve(avail); err != nil {
					panic(err)
				}
			}
		}
	})
	sim.Run()

	if !d.Failed() {
		t.Fatal("delivery not abandoned")
	}
	ferr := d.err
	for _, want := range []error{ErrNoViablePlan, gara.ErrLeaseRevoked, netsim.ErrInsufficientBandwidth} {
		if !errors.Is(ferr, want) {
			t.Fatalf("err = %v, want %v in the chain", ferr, want)
		}
	}
}
