package netsim

import (
	"math"
	"testing"
)

func TestCongestSqueezesWithoutRevoking(t *testing.T) {
	_, l := newLink(1000)
	r1, err := l.Reserve(200)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := l.Reserve(600)
	if err != nil {
		t.Fatal(err)
	}
	l.Congest(0.5)
	if l.congestion != 0.5 {
		t.Fatalf("factor = %v, want 0.5", l.congestion)
	}
	// Bookings are untouched — admission state does not change.
	if l.reserved != 800 {
		t.Fatalf("reserved = %v, want 800 (no revocation)", l.reserved)
	}
	// Achieved rates waterfill 500 effective bytes/s: the small booking
	// fits whole (200 < the 250 fair share), the big one takes the rest.
	if got := r1.EffectiveRate(); got != 200 {
		t.Fatalf("r1 effective = %v, want 200", got)
	}
	if got := r2.EffectiveRate(); got != 300 {
		t.Fatalf("r2 effective = %v, want 300", got)
	}
	// Admission arithmetic stays on the booked numbers: the system has no
	// feedback about cross traffic (no DiffServ), only the guardian sees
	// the squeezed achieved rates.
	if l.Available() != 200 {
		t.Fatalf("available = %v, want booked headroom 200", l.Available())
	}
}

func TestCongestRenegotiatingSmallerHelps(t *testing.T) {
	_, l := newLink(1000)
	big, err := l.Reserve(800)
	if err != nil {
		t.Fatal(err)
	}
	l.Congest(0.5)
	if got := big.EffectiveRate(); got != 500 {
		t.Fatalf("big effective = %v, want 500", got)
	}
	// Trading the 800 booking for a 400 one restores full achieved rate —
	// the guardian's renegotiate rung depends on this.
	big.Release()
	small, err := l.Reserve(400)
	if err != nil {
		t.Fatal(err)
	}
	if got := small.EffectiveRate(); got != 400 {
		t.Fatalf("small effective = %v, want 400 (fits under effective capacity)", got)
	}
	if big.EffectiveRate() != 0 {
		t.Fatal("released reservation reports a rate")
	}
}

func TestCongestSqueezesBestEffortFlows(t *testing.T) {
	_, l := newLink(1000)
	f := l.Join(900, nil)
	if f.Rate() != 900 {
		t.Fatalf("uncongested rate = %v", f.Rate())
	}
	l.Congest(0.4)
	if got := f.Rate(); got != 400 {
		t.Fatalf("congested best-effort rate = %v, want 400", got)
	}
	l.Congest(1)
	if got := f.Rate(); got != 900 {
		t.Fatalf("cleared rate = %v, want 900", got)
	}
}

func TestRestoreClearsCongestion(t *testing.T) {
	_, l := newLink(1000)
	r, err := l.Reserve(700)
	if err != nil {
		t.Fatal(err)
	}
	l.Congest(0.3)
	if got := r.EffectiveRate(); got != 300 {
		t.Fatalf("effective = %v, want 300", got)
	}
	l.Restore()
	if l.congestion < 1 {
		t.Fatal("Restore left congestion set")
	}
	if got := r.EffectiveRate(); got != 700 {
		t.Fatalf("restored effective = %v, want 700", got)
	}
}

func TestCongestComposesWithDegrade(t *testing.T) {
	_, l := newLink(1000)
	r, err := l.Reserve(400)
	if err != nil {
		t.Fatal(err)
	}
	l.Degrade(0.5) // capacity 500: the 400 booking still fits, no revocation
	if r.released {
		t.Fatal("degrade within capacity revoked the reservation")
	}
	l.Congest(0.5) // effective 250
	if got := r.EffectiveRate(); math.Abs(got-250) > 1e-9 {
		t.Fatalf("effective = %v, want 250 (degrade × congest)", got)
	}
}

func TestCongestPanicsOnBadFactor(t *testing.T) {
	_, l := newLink(1000)
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Congest(%v) did not panic", bad)
				}
			}()
			l.Congest(bad)
		}()
	}
}

// Degrade rejects every factor outside (0,1], NaN included, and leaves the
// capacity as it was.
func TestDegradePanicsOnBadFactor(t *testing.T) {
	_, l := newLink(1000)
	for _, bad := range []float64{0, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Degrade(%v) did not panic", bad)
				}
			}()
			l.Degrade(bad)
		}()
	}
	if l.capacity != 1000 {
		t.Fatalf("capacity = %v after rejected degradations, want 1000", l.capacity)
	}
}
