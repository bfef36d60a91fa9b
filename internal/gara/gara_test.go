package gara

import (
	"errors"
	"testing"
	"time"

	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

func demand(cpu, net, disk, mem float64) qos.ResourceVector {
	var v qos.ResourceVector
	v[qos.ResCPU] = cpu
	v[qos.ResNetBandwidth] = net
	v[qos.ResDiskBandwidth] = disk
	v[qos.ResMemory] = mem
	return v
}

func newNode() (*simtime.Simulator, *Node) {
	sim := simtime.NewSimulator()
	return sim, NewNode(sim, "srv0", DefaultCapacity())
}

func TestDefaultCapacityMatchesTestbed(t *testing.T) {
	c := DefaultCapacity()
	if c.NetBandwidth != 3200e3 {
		t.Fatalf("net = %v, want the paper's 3200 KB/s", c.NetBandwidth)
	}
	v := c.Vector()
	if v[qos.ResNetBandwidth] != 3200e3 || v[qos.ResMemory] != 1<<30 {
		t.Fatalf("vector = %v", v)
	}
}

func TestReserveAndRelease(t *testing.T) {
	_, n := newNode()
	d := demand(0.1, 500e3, 500e3, 1<<20)
	l, err := n.Reserve("s1", d, 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	u := n.Usage()
	if u[qos.ResNetBandwidth] != 500e3 || u[qos.ResDiskBandwidth] != 500e3 {
		t.Fatalf("usage = %v", u)
	}
	if u[qos.ResCPU] < 0.09 || u[qos.ResCPU] > 0.11 {
		t.Fatalf("cpu usage = %v, want ~0.1", u[qos.ResCPU])
	}
	if n.leases != 1 {
		t.Fatalf("leases = %d", n.leases)
	}
	if l.CPUJob() == nil {
		t.Fatal("lease should carry a reserved CPU job")
	}
	l.Release()
	l.Release() // idempotent
	if got := n.Usage(); got != demand(0, 0, 0, 0) {
		t.Fatalf("usage after release = %v", got)
	}
	if n.leases != 0 {
		t.Fatalf("leases after release = %d", n.leases)
	}
}

// Disk and memory admit a booking that fills the node exactly to capacity
// and refuse one that overshoots it by half a percent: an admitted plan
// holds what it booked, so the node must never over-book.
func TestAdmissionAtExactDiskAndMemoryCapacity(t *testing.T) {
	for _, kind := range []qos.ResourceKind{qos.ResDiskBandwidth, qos.ResMemory} {
		_, n := newNode()
		capacity := n.capacity[kind]
		var half, rest, over qos.ResourceVector
		half[kind] = capacity / 2
		rest[kind] = capacity - half[kind]
		over[kind] = rest[kind] + 0.005*capacity
		if _, err := n.Reserve("half", half, 40*time.Millisecond); err != nil {
			t.Fatalf("%v: half the capacity refused: %v", kind, err)
		}
		if _, err := n.Reserve("over", over, 40*time.Millisecond); !errors.Is(err, ErrRejected) {
			t.Fatalf("%v: booking 0.5%% past capacity: err = %v, want ErrRejected", kind, err)
		}
		if _, err := n.Reserve("rest", rest, 40*time.Millisecond); err != nil {
			t.Fatalf("%v: booking exactly to capacity refused: %v", kind, err)
		}
		if u := n.Usage(); u[kind] != capacity {
			t.Fatalf("%v: usage %v, want exactly the capacity %v", kind, u[kind], capacity)
		}
	}
}

func TestAdmissionRejectsOverload(t *testing.T) {
	_, n := newNode()
	// Saturate network: 6 x 500KB/s fits in 3200KB/s, the 7th does not.
	for i := 0; i < 6; i++ {
		if _, err := n.Reserve("s", demand(0.05, 500e3, 0, 0), 40*time.Millisecond); err != nil {
			t.Fatalf("reservation %d rejected: %v", i, err)
		}
	}
	if demand(0, 500e3, 0, 0).FitsWithin(n.Usage(), n.capacity) {
		t.Fatal("over-capacity demand fits the node's usage")
	}
	if _, err := n.Reserve("s", demand(0.05, 500e3, 0, 0), 40*time.Millisecond); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// A smaller stream still fits (200KB/s into remaining 200KB/s).
	if _, err := n.Reserve("s", demand(0.05, 200e3, 0, 0), 40*time.Millisecond); err != nil {
		t.Fatalf("fitting reservation rejected: %v", err)
	}
}

func TestReserveRollsBackOnCPUFailure(t *testing.T) {
	_, n := newNode()
	// CPU capacity is 0.85; first lease takes 0.8, second wants 0.2 CPU
	// plus network — network succeeds first, then CPU fails, and the
	// network reservation must be rolled back.
	if _, err := n.Reserve("big", demand(0.8, 100e3, 0, 0), 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, err := n.Reserve("s2", demand(0.2, 1000e3, 0, 0), 40*time.Millisecond)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
	u := n.Usage()
	if u[qos.ResNetBandwidth] != 100e3 {
		t.Fatalf("network not rolled back: %v", u[qos.ResNetBandwidth])
	}
	if n.Link().Available() != 3200e3-100e3 {
		t.Fatalf("link available = %v", n.Link().Available())
	}
}

func TestReserveDiskAndMemoryBounds(t *testing.T) {
	_, n := newNode()
	if _, err := n.Reserve("d", demand(0, 0, 25e6, 0), time.Second); !errors.Is(err, ErrRejected) {
		t.Fatal("over-capacity disk accepted")
	}
	if _, err := n.Reserve("m", demand(0, 0, 0, 2<<30), time.Second); !errors.Is(err, ErrRejected) {
		t.Fatal("over-capacity memory accepted")
	}
}

func TestReserveInvalidPeriod(t *testing.T) {
	_, n := newNode()
	if _, err := n.Reserve("x", demand(0.1, 0, 0, 0), 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestZeroCPULeaseHasNoJob(t *testing.T) {
	_, n := newNode()
	l, err := n.Reserve("net-only", demand(0, 100e3, 0, 0), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if l.CPUJob() != nil {
		t.Fatal("zero-CPU lease created a CPU job")
	}
	l.Release()
}

func TestLeaseCPUJobIsSchedulable(t *testing.T) {
	sim, n := newNode()
	l, err := n.Reserve("s", demand(0.2, 100e3, 0, 0), 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var done simtime.Time
	l.CPUJob().Submit(2*time.Millisecond, simtime.Func(func() { done = sim.Now() }), 0)
	sim.Run()
	if done != 2*time.Millisecond {
		t.Fatalf("reserved job completion = %v", done)
	}
}

func TestManyLeasesAccounting(t *testing.T) {
	_, n := newNode()
	var leases []*Lease
	for i := 0; i < 8; i++ {
		l, err := n.Reserve("s", demand(0.05, 300e3, 300e3, 1<<20), 40*time.Millisecond)
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		leases = append(leases, l)
	}
	for _, l := range leases {
		l.Release()
	}
	u := n.Usage()
	for k, x := range u {
		if x > 1e-9 {
			t.Fatalf("usage leaked on axis %d: %v", k, u)
		}
	}
}
