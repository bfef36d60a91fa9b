package gara

import (
	"math/rand"
	"testing"

	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// TestNodeConcurrentReserveReleaseFail interleaves, in a seeded order, many
// holders' direct lease traffic with crash/restore/revoke churn and usage
// readers on one node — the operations a world's concurrent sessions and
// faults issue between events. After every step no axis may exceed
// capacity and usage must equal the sum of the live leases' vectors (the
// demands are whole numbers, so the float sums are exact); at quiesce the
// books return exactly to zero.
func TestNodeConcurrentReserveReleaseFail(t *testing.T) {
	sim := simtime.NewSimulator()
	capv := NodeCapacity{NetBandwidth: 1e8, DiskBandwidth: 1e8, Memory: 1 << 36}
	node := NewNode(sim, "hot", capv)
	capVec := capv.Vector()

	const holders, opsPerHolder = 16, 300
	leases := make([][]*Lease, holders)
	rngs := make([]uint64, holders)
	left := make([]int, holders)
	for w := range rngs {
		rngs[w] = uint64(w)*0x9e3779b97f4a7c15 + 1
		left[w] = opsPerHolder
	}
	next := func(w int) uint64 {
		r := rngs[w]
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		rngs[w] = r
		return r
	}
	demand := func(r uint64) qos.ResourceVector {
		var v qos.ResourceVector
		v[qos.ResNetBandwidth] = float64(1 + r%5000)
		v[qos.ResDiskBandwidth] = float64(1 + r%1000)
		v[qos.ResMemory] = float64(4096 * (1 + r%16))
		return v
	}
	check := func(step int) {
		u := node.Usage()
		var sum qos.ResourceVector
		for _, l := range node.live {
			for i, x := range l.Vector() {
				sum[i] += x
			}
		}
		for i := range u {
			if u[i] > capVec[i]+1e-6 {
				t.Fatalf("step %d: usage %v exceeded capacity %v", step, u, capVec)
			}
			if u[i] != sum[i] {
				t.Fatalf("step %d: usage %v, live leases sum to %v", step, u, sum)
			}
		}
		if node.leases != len(node.live) {
			t.Fatalf("step %d: %d leases counted, %d live", step, node.leases, len(node.live))
		}
	}

	// Actors 0..holders-1 are lease holders; actor holders is the fault
	// churn (crash, restore, revoke the oldest lease, in turn); actor
	// holders+1 is a reader.
	order := rand.New(rand.NewSource(7))
	churn, reads := 0, 0
	for step := 0; ; step++ {
		var active []int
		for w := range left {
			if left[w] > 0 {
				active = append(active, w)
			}
		}
		if len(active) == 0 {
			break
		}
		switch a := order.Intn(len(active) + 2); {
		case a < len(active):
			w := active[a]
			left[w]--
			r := next(w)
			if r%3 == 0 && len(leases[w]) > 0 {
				last := len(leases[w]) - 1
				leases[w][last].Release()
				leases[w] = leases[w][:last]
			} else if l, err := node.Reserve("stress", demand(r), simtime.Seconds(1)); err == nil {
				leases[w] = append(leases[w], l)
			}
		case a == len(active):
			switch churn % 3 {
			case 0:
				node.Fail()
			case 1:
				node.Restore()
			case 2:
				node.RevokeOldestLease(nil)
			}
			churn++
		default:
			_ = node.Down()
			reads++
		}
		check(step)
	}
	if churn < 30 || reads == 0 {
		t.Fatalf("interleaving ran %d churn steps and %d reads", churn, reads)
	}

	// Quiesce: release every surviving lease (revoked ones no-op) and the
	// node must be exactly empty — counters clamp at zero, so any residue
	// means an update was lost or applied twice.
	node.Restore()
	for w := range leases {
		for _, l := range leases[w] {
			l.Release()
		}
	}
	if got := node.Usage(); got != (qos.ResourceVector{}) {
		t.Fatalf("usage at quiesce = %v, want zero", got)
	}
	if n := node.leases; n != 0 {
		t.Fatalf("%d live leases at quiesce, want 0", n)
	}
}
