package broker

import (
	"errors"
	"math/rand"
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// world is a two-site control plane with flippable per-site partitions.
type world struct {
	sim   *simtime.Simulator
	net   *Net
	nodes map[string]*gara.Node
	bks   map[string]*Broker
	cut   map[string]bool // site -> partitioned
	reg   *obs.Registry
}

func newWorld(t *testing.T, cfg Config) *world {
	t.Helper()
	sim := simtime.NewSimulator()
	reg := obs.NewRegistry()
	net, err := NewNet(sim, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{
		sim: sim, net: net, reg: reg,
		nodes: map[string]*gara.Node{},
		bks:   map[string]*Broker{},
		cut:   map[string]bool{},
	}
	net.SetPartitionCheck(func(site string) bool { return w.cut[site] })
	for _, s := range []string{"a", "b"} {
		n := gara.NewNode(sim, s, gara.DefaultCapacity())
		n.Instrument(reg)
		w.nodes[s] = n
		b := New(sim, n, reg)
		w.bks[s] = b
		net.Register(s, b.Handle)
	}
	return w
}

func demand() qos.ResourceVector {
	var v qos.ResourceVector
	v[qos.ResCPU] = 0.1
	v[qos.ResNetBandwidth] = 100e3
	v[qos.ResDiskBandwidth] = 200e3
	v[qos.ResMemory] = 1 << 20
	return v
}

func prepReq(tx uint64, ttl simtime.Time) Request {
	return Request{
		Op: OpPrepare, TxID: tx, Name: "v",
		Vec: demand(), Period: simtime.Seconds(1.0 / 25), TTL: ttl,
	}
}

func TestSynchronousCallSchedulesNoEvents(t *testing.T) {
	w := newWorld(t, Config{})
	before := w.sim.Executed()
	fired := false
	w.net.Call("a", "b", prepReq(1, 0), nil, func(rep Reply, err error) {
		fired = true
		if err != nil || !rep.OK || rep.Lease == nil {
			t.Fatalf("sync prepare: rep=%+v err=%v", rep, err)
		}
	})
	if !fired {
		t.Fatal("synchronous call did not complete inline")
	}
	w.sim.Run()
	if w.sim.Executed() != before {
		t.Fatalf("synchronous call scheduled %d events", w.sim.Executed()-before)
	}
}

func TestAsyncCallRoundTripLatency(t *testing.T) {
	cfg := Config{Latency: simtime.Seconds(0.005), Timeout: simtime.Seconds(0.04)}
	w := newWorld(t, cfg)
	var at simtime.Time
	done := false
	w.net.Call("a", "b", prepReq(1, cfg.PrepareTTL), nil, func(rep Reply, err error) {
		if err != nil || !rep.OK {
			t.Fatalf("prepare failed: %+v %v", rep, err)
		}
		at = w.sim.Now()
		done = true
	})
	if done {
		t.Fatal("async call completed inline")
	}
	w.sim.Run()
	if !done {
		t.Fatal("async call never completed")
	}
	if want := simtime.Seconds(0.010); at != want {
		t.Fatalf("reply at %v, want %v (two latency legs)", at, want)
	}
}

func TestCallTimesOutWithBoundedRetries(t *testing.T) {
	cfg := Config{Latency: simtime.Seconds(0.005), Timeout: simtime.Seconds(0.04), Retries: 2}
	w := newWorld(t, cfg)
	w.cut["b"] = true
	var got error
	w.net.Call("a", "b", prepReq(1, 0), nil, func(rep Reply, err error) { got = err })
	w.sim.Run()
	if !errors.Is(got, ErrControlTimeout) {
		t.Fatalf("err = %v, want ErrControlTimeout", got)
	}
	if at, want := w.sim.Now(), 3*cfg.Timeout; at != want {
		t.Fatalf("gave up at %v, want %v (1 attempt + 2 retries)", at, want)
	}
	snap := counterValue(t, w.reg, "quasaq_ctrl_retries_total", nil)
	if snap != 2 {
		t.Fatalf("retries counter = %d, want 2", snap)
	}
	if drops := counterValue(t, w.reg, "quasaq_ctrl_msgs_dropped_total", nil); drops != 3 {
		t.Fatalf("dropped counter = %d, want 3", drops)
	}
}

// preparedLive reads a site's live prepared-lease count from the series its
// gara node publishes.
func (w *world) preparedLive(t *testing.T, site string) int64 {
	t.Helper()
	return counterValue(t, w.reg, "gara_leases_prepared_live", map[string]string{"site": site})
}

// leasesLive reads the live-lease gauge gara publishes for site.
func (w *world) leasesLive(t *testing.T, site string) int64 {
	t.Helper()
	return counterValue(t, w.reg, "gara_leases_live", map[string]string{"site": site})
}

// counterValue digs one series out of a snapshot.
func counterValue(t *testing.T, reg *obs.Registry, name string, labels map[string]string) int64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return int64(s.Value)
		}
	}
	t.Fatalf("series %s %v not found", name, labels)
	return 0
}

func TestPrepareCommitLifecycle(t *testing.T) {
	w := newWorld(t, Config{})
	b := w.bks["b"]
	rep := b.Handle(prepReq(7, 0))
	if !rep.OK || rep.Lease == nil {
		t.Fatalf("prepare: %+v", rep)
	}
	if w.preparedLive(t, "b") != 1 || w.leasesLive(t, "b") != 1 {
		t.Fatalf("after prepare: prepared=%d leases=%d", w.preparedLive(t, "b"), w.leasesLive(t, "b"))
	}
	crep := b.Handle(Request{Op: OpCommit, TxID: 7})
	if !crep.OK || crep.Lease != rep.Lease {
		t.Fatalf("commit: %+v", crep)
	}
	if w.preparedLive(t, "b") != 0 || w.leasesLive(t, "b") != 1 {
		t.Fatalf("after commit: prepared=%d leases=%d", w.preparedLive(t, "b"), w.leasesLive(t, "b"))
	}
	if b.PendingPrepares() != 0 {
		t.Fatalf("pending prepares = %d after commit", b.PendingPrepares())
	}
}

func TestPrepareIsIdempotentUnderRetry(t *testing.T) {
	w := newWorld(t, Config{})
	b := w.bks["b"]
	r1 := b.Handle(prepReq(3, 0))
	r2 := b.Handle(prepReq(3, 0))
	if r1.Lease != r2.Lease {
		t.Fatal("duplicate prepare created a second lease")
	}
	if w.leasesLive(t, "b") != 1 {
		t.Fatalf("leases = %d, want 1", w.leasesLive(t, "b"))
	}
}

func TestCommitUnknownTxIsNacked(t *testing.T) {
	w := newWorld(t, Config{})
	rep := w.bks["b"].Handle(Request{Op: OpCommit, TxID: 99})
	if rep.OK || !errors.Is(rep.Err, ErrUnknownTx) {
		t.Fatalf("commit of unknown tx: %+v", rep)
	}
}

func TestAbortReleasesPreparedLease(t *testing.T) {
	w := newWorld(t, Config{})
	b := w.bks["b"]
	b.Handle(prepReq(5, 0))
	if rep := b.Handle(Request{Op: OpAbort, TxID: 5}); !rep.OK {
		t.Fatalf("abort: %+v", rep)
	}
	if w.leasesLive(t, "b") != 0 || w.preparedLive(t, "b") != 0 || b.PendingPrepares() != 0 {
		t.Fatalf("after abort: leases=%d prepared=%d pending=%d",
			w.leasesLive(t, "b"), w.preparedLive(t, "b"), b.PendingPrepares())
	}
	// Aborting again — or aborting a transaction that never existed — acks.
	if rep := b.Handle(Request{Op: OpAbort, TxID: 5}); !rep.OK {
		t.Fatalf("duplicate abort: %+v", rep)
	}
}

func TestPrepareTTLReclaimsOrphan(t *testing.T) {
	ttl := simtime.Seconds(0.25)
	w := newWorld(t, Config{Latency: simtime.Seconds(0.005)})
	b := w.bks["b"]
	b.Handle(prepReq(11, ttl))
	if w.leasesLive(t, "b") != 1 {
		t.Fatal("prepare did not hold resources")
	}
	w.sim.RunUntil(ttl - 1)
	if w.leasesLive(t, "b") != 1 {
		t.Fatal("TTL fired early")
	}
	w.sim.Run()
	if w.leasesLive(t, "b") != 0 || b.PendingPrepares() != 0 {
		t.Fatalf("orphan survived TTL: leases=%d pending=%d", w.leasesLive(t, "b"), b.PendingPrepares())
	}
	if exp := counterValue(t, w.reg, "quasaq_ctrl_orphans_expired_total", map[string]string{"site": "b"}); exp != 1 {
		t.Fatalf("orphans_expired = %d, want 1", exp)
	}
	// A commit arriving after expiry is NACKed, not re-created.
	if rep := b.Handle(Request{Op: OpCommit, TxID: 11}); rep.OK || !errors.Is(rep.Err, ErrUnknownTx) {
		t.Fatalf("late commit: %+v", rep)
	}
}

func TestNodeCrashDropsPreparedEntry(t *testing.T) {
	w := newWorld(t, Config{Latency: simtime.Seconds(0.005)})
	b, n := w.bks["b"], w.nodes["b"]
	b.Handle(prepReq(13, simtime.Seconds(0.25)))
	n.Fail()
	if b.PendingPrepares() != 0 {
		t.Fatalf("crash left %d pending prepares", b.PendingPrepares())
	}
	if rep := b.Handle(Request{Op: OpCommit, TxID: 13}); rep.OK {
		t.Fatal("commit of a crash-revoked prepare was acked")
	}
	// The cancelled TTL timer must not fire against the restored node.
	n.Restore()
	w.sim.Run()
	if w.leasesLive(t, "b") != 0 {
		t.Fatalf("leases = %d after crash/restore", w.leasesLive(t, "b"))
	}
}

func TestCommitRetryAfterLostAckIsIdempotent(t *testing.T) {
	ttl := simtime.Seconds(0.25)
	w := newWorld(t, Config{Latency: simtime.Seconds(0.005)})
	b := w.bks["b"]
	rep := b.Handle(prepReq(17, ttl))
	c1 := b.Handle(Request{Op: OpCommit, TxID: 17, TTL: ttl})
	c2 := b.Handle(Request{Op: OpCommit, TxID: 17, TTL: ttl})
	if !c1.OK || !c2.OK || c1.Lease != rep.Lease || c2.Lease != rep.Lease {
		t.Fatalf("commit retry: c1=%+v c2=%+v", c1, c2)
	}
	// An abort rolling back the partially committed transaction still
	// releases the lease.
	if arep := b.Handle(Request{Op: OpAbort, TxID: 17}); !arep.OK {
		t.Fatalf("abort-after-commit: %+v", arep)
	}
	if w.leasesLive(t, "b") != 0 {
		t.Fatalf("leases = %d after abort-after-commit", w.leasesLive(t, "b"))
	}
	w.sim.Run() // the forget timer was cancelled; nothing should fire
}

// TestBrokerSurvivesConcurrentNodeFaults interleaves, in a seeded order,
// one broker's prepare → commit loop with crashes and restores of its node:
// gara fires the prepared leases' revoke callbacks — Broker.drop — from
// inside Node.Fail, between the loop's own steps. After every step each
// prepared entry must still hold a live lease, and the broker's table must
// match the node's prepared-lease gauge. At quiesce nothing may be left
// prepared and the node's books must read exactly zero.
func TestBrokerSurvivesConcurrentNodeFaults(t *testing.T) {
	w := newWorld(t, Config{}) // synchronous: no TTL timers, the simulator stays idle
	b, n := w.bks["b"], w.nodes["b"]
	preparedNow := w.reg.Gauge("gara_leases_prepared_live", "site", "b")

	// The loop prepares in batches and commits afterwards, so a crash
	// between the two finds prepared leases to revoke; it keeps going until
	// faults have provably dropped entries under it.
	const batch, wantDropped, maxRounds = 4, 20, 200000
	req := prepReq(0, 0)
	req.Vec[qos.ResCPU] = 0.125 // a binary fraction: overlapping leases sum and cancel exactly
	dropped, round, slot := 0, 0, 0
	var prepared [batch]bool
	// loopStep runs the loop's next Handle call: batch prepares, then one
	// commit (and its abort) per transaction of the batch.
	loopStep := func() {
		base := uint64(round) * batch
		if slot < batch {
			req.TxID = base + uint64(slot)
			prepared[slot] = b.Handle(req).OK
		} else {
			i := slot - batch
			id := base + uint64(i)
			switch rep := b.Handle(Request{Op: OpCommit, TxID: id}); {
			case rep.OK:
				rep.Lease.Release()
			case prepared[i] && errors.Is(rep.Err, ErrUnknownTx):
				dropped++ // prepared, then revoked by a crash before the commit
			}
			b.Handle(Request{Op: OpAbort, TxID: id})
		}
		if slot++; slot == 2*batch {
			slot = 0
			round++
		}
	}

	order := rand.New(rand.NewSource(3))
	for step := 0; dropped < wantDropped || slot != 0; step++ { // whole rounds only
		if round == maxRounds {
			t.Fatalf("only %d prepared entries dropped by faults in %d rounds", dropped, round)
		}
		if order.Intn(4) == 0 {
			if n.Down() {
				n.Restore()
			} else {
				n.Fail()
			}
		} else {
			loopStep()
		}
		for tx, e := range b.prepared {
			if e.lease.Revoked() {
				t.Fatalf("step %d: tx %d is still prepared on a revoked lease", step, tx)
			}
		}
		if got, want := int64(b.PendingPrepares()), preparedNow.Value(); got != want {
			t.Fatalf("step %d: broker holds %d prepares, node %d prepared leases", step, got, want)
		}
	}
	n.Restore()

	if got := b.PendingPrepares(); got != 0 {
		t.Fatalf("%d prepares pending at quiesce", got)
	}
	if u := n.Usage(); u != (qos.ResourceVector{}) || w.leasesLive(t, "b") != 0 {
		t.Fatalf("node holds %v in %d leases at quiesce", u, w.leasesLive(t, "b"))
	}
}
