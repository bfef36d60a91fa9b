package faults

import (
	"errors"
	"math"
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/netsim"
	"quasaq/internal/simtime"
)

func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule(`
		# fault plan
		120s node-crash     srv-b
		300s node-restart   srv-b   # back after five minutes
		50s  link-degrade   srv-a 0.5
		400s link-restore   srv-a
		200s link-partition srv-c
		250s lease-revoke   srv-a
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 6 {
		t.Fatalf("parsed %d events, want 6", len(s))
	}
	if s[0].Kind != NodeCrash || s[0].Target != "srv-b" || s[0].At != simtime.Seconds(120) {
		t.Fatalf("event 0 = %+v", s[0])
	}
	if s[2].Kind != LinkDegrade || s[2].Factor != 0.5 {
		t.Fatalf("event 2 = %+v", s[2])
	}
	// Round trip through the text form.
	again, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(s) {
		t.Fatalf("round trip lost events: %d != %d", len(again), len(s))
	}
}

func TestParseScheduleErrors(t *testing.T) {
	for _, bad := range []string{
		"10s explode srv-a",           // unknown kind
		"banana node-crash srv-a",     // bad offset
		"10s link-degrade srv-a",      // missing factor
		"10s link-degrade srv-a 1.5",  // factor out of range
		"10s link-degrade srv-a NaN",  // factor out of range
		"10s link-degrade srv-a zero", // unparsable factor
		"10s node-crash",              // missing target
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

// A NaN factor is outside (0,1] like any other: a schedule built in code
// must not reach the link with it either.
func TestScheduleRejectsNaNFactor(t *testing.T) {
	for _, kind := range []Kind{LinkDegrade, LinkCongest} {
		s := Schedule{{At: simtime.Seconds(1), Kind: kind, Target: "srv-a", Factor: math.NaN()}}
		if err := s.Validate(); err == nil {
			t.Errorf("Validate accepted a NaN %v factor", kind)
		}
		sim := simtime.NewSimulator()
		n := gara.NewNode(sim, "srv-a", gara.DefaultCapacity())
		in := NewInjector(sim)
		in.RegisterNode(n)
		base := n.Link().Available() // nothing reserved: the effective capacity
		if err := in.Apply(s); err == nil {
			t.Errorf("Apply accepted a NaN %v factor", kind)
		}
		sim.Run()
		if got := n.Link().Available(); got != base {
			t.Errorf("capacity after rejected NaN %v = %v, want %v", kind, got, base)
		}
	}
}

func TestInjectorAppliesInOrder(t *testing.T) {
	sim := simtime.NewSimulator()
	n := gara.NewNode(sim, "srv-a", gara.DefaultCapacity())
	in := NewInjector(sim)
	in.RegisterNode(n)
	s := Schedule{
		{At: simtime.Seconds(10), Kind: NodeCrash, Target: "srv-a"},
		{At: simtime.Seconds(5), Kind: LinkDegrade, Target: "srv-a", Factor: 0.25},
		{At: simtime.Seconds(20), Kind: NodeRestart, Target: "srv-a"},
	}
	if err := in.Apply(s); err != nil {
		t.Fatal(err)
	}
	base := n.Link().Available() // nothing reserved: the effective capacity
	sim.RunUntil(simtime.Seconds(6))
	if got := n.Link().Available(); got != 0.25*base {
		t.Fatalf("capacity after degrade = %v", got)
	}
	sim.RunUntil(simtime.Seconds(11))
	if !n.Down() || !n.Link().Down() {
		t.Fatal("node not down after crash")
	}
	sim.RunUntil(simtime.Seconds(21))
	if n.Down() || n.Link().Down() {
		t.Fatal("node not restored")
	}
	if got := n.Link().Available(); got != base {
		t.Fatalf("capacity after restore = %v", got)
	}
	log := in.Log()
	if len(log) != 3 || !log[0].Applied || log[0].Kind != LinkDegrade {
		t.Fatalf("log = %+v", log)
	}
}

func TestInjectorCrashRevokesLeases(t *testing.T) {
	sim := simtime.NewSimulator()
	n := gara.NewNode(sim, "srv-a", gara.DefaultCapacity())
	var vec [4]float64
	vec[1] = 100e3 // net bandwidth
	l, err := n.Reserve("job", vec, simtime.Seconds(0.04))
	if err != nil {
		t.Fatal(err)
	}
	var revoked error
	l.SetOnRevoke(func(cause error) { revoked = cause })
	in := NewInjector(sim)
	in.RegisterNode(n)
	if err := in.Apply(Schedule{{At: simtime.Seconds(1), Kind: NodeCrash, Target: "srv-a"}}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(simtime.Seconds(2))
	if revoked == nil {
		t.Fatal("lease not revoked on crash")
	}
	if !errors.Is(revoked, gara.ErrLeaseRevoked) || !errors.Is(revoked, gara.ErrNodeDown) {
		t.Fatalf("revocation cause %v missing taxonomy", revoked)
	}
}

func TestInjectorUnknownTargetLogged(t *testing.T) {
	sim := simtime.NewSimulator()
	in := NewInjector(sim)
	if err := in.Apply(Schedule{{At: 0, Kind: NodeCrash, Target: "ghost"}}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if log := in.Log(); len(log) != 1 || log[0].Applied {
		t.Fatalf("log = %+v", log)
	}
}

func TestLeaseRevokeEvent(t *testing.T) {
	sim := simtime.NewSimulator()
	n := gara.NewNode(sim, "srv-a", gara.DefaultCapacity())
	var vec [4]float64
	vec[1] = 100e3
	first, err := n.Reserve("first", vec, simtime.Seconds(0.04))
	if err != nil {
		t.Fatal(err)
	}
	second, err := n.Reserve("second", vec, simtime.Seconds(0.04))
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(sim)
	in.RegisterNode(n)
	if err := in.Apply(Schedule{{At: simtime.Seconds(1), Kind: LeaseRevoke, Target: "srv-a"}}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !first.Revoked() {
		t.Fatal("oldest lease not revoked")
	}
	if second.Revoked() {
		t.Fatal("newer lease revoked instead")
	}
}

func TestStandaloneLinkRegistration(t *testing.T) {
	sim := simtime.NewSimulator()
	l := netsim.NewLink("backbone", 1e6)
	in := NewInjector(sim)
	in.links["backbone"] = l
	if err := in.Apply(Schedule{{At: 0, Kind: LinkPartition, Target: "backbone"}}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !l.Down() {
		t.Fatal("standalone link not partitioned")
	}
	if _, err := l.Reserve(1000); !errors.Is(err, netsim.ErrLinkDown) {
		t.Fatalf("reserve on down link: %v", err)
	}
}
