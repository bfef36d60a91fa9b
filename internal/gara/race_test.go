package gara

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// TestNodeConcurrentReserveReleaseFail hammers one node with direct lease
// traffic while crash/restore churns underneath and readers consume the
// lock-free usage snapshot. It pins the two invariants admission's cost
// models lean on: usage reads never observe a half-applied reservation (no
// axis can exceed capacity), and at quiesce the books return exactly to zero.
func TestNodeConcurrentReserveReleaseFail(t *testing.T) {
	sim := simtime.NewSimulator()
	capv := NodeCapacity{NetBandwidth: 1e8, DiskBandwidth: 1e8, Memory: 1 << 36}
	node := NewNode(sim, "hot", capv)
	capVec := capv.Vector()

	workers := runtime.GOMAXPROCS(0) * 8
	const opsPerWorker = 300
	var wgWorkers, wgAux sync.WaitGroup
	var stop atomic.Bool
	leases := make([][]*Lease, workers)

	demand := func(r uint64) qos.ResourceVector {
		var v qos.ResourceVector
		v[qos.ResNetBandwidth] = float64(1 + r%5000)
		v[qos.ResDiskBandwidth] = float64(1 + r%1000)
		v[qos.ResMemory] = float64(4096 * (1 + r%16))
		return v
	}

	for w := 0; w < workers; w++ {
		w := w
		wgWorkers.Add(1)
		go func() {
			defer wgWorkers.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			for i := 0; i < opsPerWorker; i++ {
				r := next()
				switch {
				case r%3 == 0 && len(leases[w]) > 0:
					last := len(leases[w]) - 1
					leases[w][last].Release()
					leases[w] = leases[w][:last]
				default:
					if l, err := node.Reserve("stress", demand(r), simtime.Seconds(1)); err == nil {
						leases[w] = append(leases[w], l)
					}
				}
			}
		}()
	}

	// Crash/restore churn plus renegotiation and operator revocation.
	wgAux.Add(1)
	go func() {
		defer wgAux.Done()
		for !stop.Load() {
			node.Fail()
			runtime.Gosched()
			node.Restore()
			node.RevokeOldestLease(nil)
			runtime.Gosched()
		}
	}()

	// Snapshot readers: every observed usage vector must fit capacity.
	var badRead atomic.Pointer[qos.ResourceVector]
	for r := 0; r < 4; r++ {
		wgAux.Add(1)
		go func() {
			defer wgAux.Done()
			for !stop.Load() {
				u := node.Usage()
				for i := range u {
					if u[i] > capVec[i]+1e-6 {
						bad := u
						badRead.Store(&bad)
					}
				}
				_ = node.Down()
				runtime.Gosched()
			}
		}()
	}

	wgWorkers.Wait()
	stop.Store(true)
	wgAux.Wait()

	if bad := badRead.Load(); bad != nil {
		t.Fatalf("usage snapshot %v exceeded capacity %v", *bad, capVec)
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
