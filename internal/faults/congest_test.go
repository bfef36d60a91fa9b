package faults

import (
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/simtime"
)

func TestParseScheduleLinkCongest(t *testing.T) {
	s, err := ParseSchedule(`
		80s  link-congest srv-a 0.6   # cross traffic arrives
		200s link-restore srv-a
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("parsed %d events, want 2", len(s))
	}
	if s[0].Kind != LinkCongest || s[0].Target != "srv-a" || s[0].Factor != 0.6 || s[0].At != simtime.Seconds(80) {
		t.Fatalf("event 0 = %+v", s[0])
	}
	again, err := ParseSchedule(s.String())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if again[0] != s[0] {
		t.Fatalf("round trip changed the event: %+v != %+v", again[0], s[0])
	}
	for _, bad := range []string{
		"10s link-congest srv-a",     // missing factor
		"10s link-congest srv-a 0",   // factor out of range
		"10s link-congest srv-a 1.1", // factor out of range
		"10s link-congest srv-a nan", // factor out of range
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
}

func TestInjectorAppliesCongestion(t *testing.T) {
	sim := simtime.NewSimulator()
	n := gara.NewNode(sim, "srv-a", gara.DefaultCapacity())
	in := NewInjector(sim)
	in.RegisterNode(n)
	s := Schedule{
		{At: simtime.Seconds(5), Kind: LinkCongest, Target: "srv-a", Factor: 0.4},
		{At: simtime.Seconds(10), Kind: LinkRestore, Target: "srv-a"},
	}
	if err := in.Apply(s); err != nil {
		t.Fatal(err)
	}
	base := n.Link().Available()
	r, err := n.Link().Reserve(base)
	if err != nil {
		t.Fatal(err)
	}
	revoked := false
	r.SetOnRevoke(func(error) { revoked = true })
	sim.RunUntil(simtime.Seconds(6))
	if got := r.EffectiveRate(); got != 0.4*base {
		t.Fatalf("achieved rate at 6s = %v, want 0.4 x %v", got, base)
	}
	// Congestion squeezes achieved rates but leaves admission capacity
	// alone — bookings made before the cross traffic are never revoked, and
	// the full-capacity booking leaves no headroom.
	if n.Link().Available() != 0 || revoked {
		t.Fatal("congestion changed the admission capacity")
	}
	sim.RunUntil(simtime.Seconds(11))
	if got := r.EffectiveRate(); got != base {
		t.Fatalf("achieved rate after link-restore = %v, want %v", got, base)
	}
	for _, rec := range in.Log() {
		if !rec.Applied {
			t.Fatalf("event not applied: %+v", rec)
		}
	}
}
