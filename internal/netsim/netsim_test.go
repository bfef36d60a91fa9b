package netsim

import (
	"errors"
	"testing"
	"time"

	"quasaq/internal/simtime"
)

func newLink(capacity float64) (*simtime.Simulator, *Link) {
	sim := simtime.NewSimulator()
	return sim, NewLink("srv0-out", capacity)
}

func TestReserveAndRelease(t *testing.T) {
	_, l := newLink(3200e3) // the paper's 3200 KB/s outbound link
	r1, err := l.Reserve(2000e3)
	if err != nil {
		t.Fatal(err)
	}
	if l.Available() != 1200e3 {
		t.Fatalf("available = %v", l.Available())
	}
	if _, err := l.Reserve(1500e3); !errors.Is(err, ErrInsufficientBandwidth) {
		t.Fatalf("over-reserve err = %v", err)
	}
	r2, err := l.Reserve(1200e3)
	if err != nil {
		t.Fatalf("exact-fit reservation rejected: %v", err)
	}
	r1.Release()
	r1.Release() // idempotent
	if l.reserved != 1200e3 {
		t.Fatalf("reserved after release = %v", l.reserved)
	}
	r2.Release()
	if l.peakReserved != 3200e3 {
		t.Fatalf("peak = %v, want 3200e3", l.peakReserved)
	}
}

func TestReserveRejectsNonPositive(t *testing.T) {
	_, l := newLink(1000)
	if _, err := l.Reserve(0); err == nil {
		t.Fatal("zero reservation accepted")
	}
	if _, err := l.Reserve(-5); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestMaxMinFairSharing(t *testing.T) {
	_, l := newLink(900)
	// Demands 100, 400, 800 over capacity 900: max-min gives 100, 400, 400.
	f1 := l.Join(100, nil)
	f2 := l.Join(400, nil)
	f3 := l.Join(800, nil)
	if f1.Rate() != 100 {
		t.Fatalf("f1 = %v, want 100 (fully satisfied)", f1.Rate())
	}
	if f2.Rate() != 400 {
		t.Fatalf("f2 = %v, want 400", f2.Rate())
	}
	if f3.Rate() != 400 {
		t.Fatalf("f3 = %v, want 400 (capped at fair share)", f3.Rate())
	}
}

func TestFairSharingConservesCapacity(t *testing.T) {
	_, l := newLink(1000)
	var flows []*Flow
	for i := 0; i < 7; i++ {
		flows = append(flows, l.Join(float64(100+i*150), nil))
	}
	var sum float64
	for _, f := range flows {
		sum += f.Rate()
	}
	if sum > 1000+1e-6 {
		t.Fatalf("allocated %v > capacity", sum)
	}
	if sum < 999 {
		t.Fatalf("allocated only %v of a saturated link", sum)
	}
}

func TestReservationSqueezesBestEffort(t *testing.T) {
	_, l := newLink(1000)
	f := l.Join(2000, nil)
	if f.Rate() != 1000 {
		t.Fatalf("lone flow rate = %v", f.Rate())
	}
	r, _ := l.Reserve(600)
	if f.Rate() != 400 {
		t.Fatalf("after reservation, flow rate = %v, want 400", f.Rate())
	}
	r.Release()
	if f.Rate() != 1000 {
		t.Fatalf("after release, flow rate = %v, want 1000", f.Rate())
	}
}

func TestFlowLeaveRedistributes(t *testing.T) {
	_, l := newLink(600)
	f1 := l.Join(600, nil)
	f2 := l.Join(600, nil)
	if f1.Rate() != 300 || f2.Rate() != 300 {
		t.Fatalf("equal split broken: %v %v", f1.Rate(), f2.Rate())
	}
	f1.Leave()
	f1.Leave() // idempotent
	if f2.Rate() != 600 {
		t.Fatalf("survivor rate = %v, want 600", f2.Rate())
	}
	if len(l.flows) != 1 {
		t.Fatalf("flows = %d", len(l.flows))
	}
}

func TestSetDemand(t *testing.T) {
	_, l := newLink(1000)
	f1 := l.Join(800, nil)
	f2 := l.Join(800, nil)
	f1.SetDemand(200)
	if f1.Rate() != 200 || f2.Rate() != 800 {
		t.Fatalf("rates after SetDemand: %v %v", f1.Rate(), f2.Rate())
	}
}

func TestOnRateCallback(t *testing.T) {
	_, l := newLink(1000)
	var got []float64
	f1 := l.Join(1000, func(r float64) { got = append(got, r) })
	_ = l.Join(1000, nil)
	f1.Leave()
	// The initial allocation is silent; the second join's halving (500) is
	// the first notification.
	if len(got) != 1 || got[0] != 500 {
		t.Fatalf("rate callbacks = %v", got)
	}
}

func TestTransferSimple(t *testing.T) {
	sim, l := newLink(1000)
	var done simtime.Time
	StartTransfer(sim, l, 5000, 1000, func(at simtime.Time) { done = at })
	sim.Run()
	if done != 5*time.Second {
		t.Fatalf("transfer completed at %v, want 5s", done)
	}
	if len(l.flows) != 0 {
		t.Fatal("flow not removed after completion")
	}
}

func TestTransferAdaptsToContention(t *testing.T) {
	sim, l := newLink(1000)
	var done simtime.Time
	StartTransfer(sim, l, 10000, 1000, func(at simtime.Time) { done = at })
	// At t=5s a competing flow joins for 5 s, halving the rate.
	sim.Schedule(5*time.Second, func() {
		f := l.Join(1000, nil)
		sim.Schedule(5*time.Second, f.Leave)
	})
	sim.Run()
	// 5 s at 1000 B/s (5000 B) + 5 s at 500 B/s while contended (2500 B)
	// + the last 2500 B at 1000 B/s once the competitor leaves = 12.5 s.
	if done != 12500*time.Millisecond {
		t.Fatalf("adaptive transfer completed at %v, want 12.5s", done)
	}
}

func TestTransferStarvationRecovers(t *testing.T) {
	sim, l := newLink(1000)
	// Reserve the whole link, starving the transfer, then release.
	r, _ := l.Reserve(1000)
	var done simtime.Time
	StartTransfer(sim, l, 1000, 1000, func(at simtime.Time) { done = at })
	sim.Schedule(10*time.Second, r.Release)
	sim.Run()
	if done != 11*time.Second {
		t.Fatalf("starved transfer completed at %v, want 11s", done)
	}
}

func TestJoinPanicsOnBadDemand(t *testing.T) {
	_, l := newLink(1000)
	defer func() {
		if recover() == nil {
			t.Fatal("zero demand accepted")
		}
	}()
	l.Join(0, nil)
}

func TestNewLinkPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	NewLink("bad", 0)
}

// Regression: Available() used to go negative when a degradation landed
// below the reserved total (observable from inside revocation callbacks,
// mid-shed) — negative headroom then corrupted max-min shares and cost
// arithmetic downstream. It must clamp at zero.
func TestAvailableClampedUnderDegradeBelowReserved(t *testing.T) {
	_, l := newLink(3200e3)
	if _, err := l.Reserve(3000e3); err != nil {
		t.Fatal(err)
	}
	r2, err := l.Reserve(100e3)
	if err != nil {
		t.Fatal(err)
	}
	var midShed []float64
	r2.SetOnRevoke(func(error) {
		// Mid-shed: capacity already degraded to 1600e3, r2 just dropped,
		// the older reservation still holds 3000e3 > capacity. Unclamped
		// this reads -1400e3.
		midShed = append(midShed, l.Available())
	})
	peakBefore := l.peakReserved
	l.Degrade(0.5) // 1600e3 capacity; sheds r2 then r1, newest-first
	if len(midShed) != 1 {
		t.Fatalf("revocation callbacks = %d, want 1", len(midShed))
	}
	if midShed[0] != 0 {
		t.Fatalf("Available() mid-shed = %v, want 0 (clamped)", midShed[0])
	}
	if l.reserved != 0 {
		// Both reservations shed: 3000e3 alone still exceeds 1600e3.
		t.Fatalf("reserved after shed = %v, want 0", l.reserved)
	}
	if got := l.Available(); got != l.capacity {
		t.Fatalf("Available() after shed = %v, want capacity %v", got, l.capacity)
	}
	if got := l.peakReserved; got != peakBefore {
		t.Fatalf("PeakReserved changed across Degrade: %v, want %v (high-water mark is monotone)", got, peakBefore)
	}
	l.Restore()
	if got := l.peakReserved; got != peakBefore {
		t.Fatalf("PeakReserved changed across Restore: %v, want %v", got, peakBefore)
	}
	if got := l.Available(); got != l.capacity {
		t.Fatalf("Available after restore = %v, want full capacity %v", got, l.capacity)
	}
}
