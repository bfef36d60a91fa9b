// Package gara is the reproduction of the paper's composite QoS API layer
// (§3.5), named after the GARA middleware the prototype built on. It unifies
// per-resource managers — CPU (the DSRT-style scheduler in cpusched),
// network bandwidth (netsim links), disk bandwidth and buffer memory — behind
// a single entry point offering the three operations the paper lists:
// admission control, resource reservation, and renegotiation. Renegotiation
// is re-admission: the quality manager reserves a new plan and releases the
// old lease (core.Manager.Renegotiate), so a Lease's vector never changes.
//
// One Node holds the managers of one database server; a Lease is an
// end-to-end reservation spanning all four resources for the lifetime of a
// media delivery job.
//
// A node belongs to one simulated world and is driven only by that world's
// goroutine (DESIGN.md §14), so it holds no lock. Holder callbacks (lease
// revocation handlers, node watchers) fire only after a mutation has
// finished: handlers re-enter the node (a failing-over session releases its
// lease, a watcher reads Usage) and must find its books complete.
package gara

import (
	"errors"
	"fmt"

	"quasaq/internal/cpusched"
	"quasaq/internal/netsim"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// Typed error taxonomy of the composite QoS API. Callers branch with
// errors.Is; every wrapped message carries the node/lease context.
var (
	// ErrRejected reports an admission-control rejection.
	ErrRejected = errors.New("gara: admission control rejected reservation")
	// ErrNodeDown reports an operation against a crashed node.
	ErrNodeDown = errors.New("gara: node down")
	// ErrLeaseRevoked reports that the node withdrew a live lease (node
	// crash, link partition, operator revocation) out from under its holder.
	ErrLeaseRevoked = errors.New("gara: lease revoked")
	// ErrLeaseReleased reports an operation on an already-released lease.
	ErrLeaseReleased = errors.New("gara: lease already released")
)

// NodeCapacity configures one server's resources. The defaults mirror the
// paper's testbed: one CPU, 3200 KB/s outbound streaming bandwidth, a disk
// read path comfortably above the link, and 1 GB of buffer memory.
type NodeCapacity struct {
	CPUCores      float64 // usable CPU, fraction of one core
	NetBandwidth  float64 // bytes per second
	DiskBandwidth float64 // bytes per second
	Memory        float64 // bytes
}

// DefaultCapacity returns the testbed-equivalent capacity (§5).
func DefaultCapacity() NodeCapacity {
	return NodeCapacity{
		CPUCores:      cpusched.DefaultMaxUtilization,
		NetBandwidth:  3200e3,
		DiskBandwidth: 20e6,
		Memory:        1 << 30,
	}
}

// Vector converts the capacity to a resource vector.
func (c NodeCapacity) Vector() qos.ResourceVector {
	var v qos.ResourceVector
	v[qos.ResCPU] = c.CPUCores
	v[qos.ResNetBandwidth] = c.NetBandwidth
	v[qos.ResDiskBandwidth] = c.DiskBandwidth
	v[qos.ResMemory] = c.Memory
	return v
}

// Node bundles one server's resource managers.
type Node struct {
	name string

	cpu  *cpusched.CPU
	link *netsim.Link

	capacity qos.ResourceVector

	diskUsed float64
	memUsed  float64
	netResv  float64 // mirrors link reservations made through leases

	leases   int
	prepared int      // leases still in the prepared (uncommitted) 2PC state
	live     []*Lease // live leases, oldest first

	down     bool
	watchers []func()

	// Registry handles, nil (no-op) until Instrument is called.
	reg          *obs.Registry
	mGranted     *obs.Counter
	mReleased    *obs.Counter
	mRevoked     *obs.Counter
	mCrashes     *obs.Counter
	mRestores    *obs.Counter
	mLive        *obs.Gauge
	mPrepared    *obs.Counter
	mCommitted   *obs.Counter
	mPreparedNow *obs.Gauge
}

// Instrument wires the node's lease accounting — and its link's and CPU
// scheduler's counters — onto the metrics registry, labelled by site. Call
// once at construction time.
func (n *Node) Instrument(reg *obs.Registry) {
	n.reg = reg
	n.mGranted = reg.Counter("gara_leases_granted_total", "site", n.name)
	n.mReleased = reg.Counter("gara_leases_released_total", "site", n.name)
	n.mRevoked = reg.Counter("gara_leases_revoked_total", "site", n.name)
	n.mCrashes = reg.Counter("gara_node_crashes_total", "site", n.name)
	n.mRestores = reg.Counter("gara_node_restores_total", "site", n.name)
	n.mLive = reg.Gauge("gara_leases_live", "site", n.name)
	n.mPrepared = reg.Counter("gara_leases_prepared_total", "site", n.name)
	n.mCommitted = reg.Counter("gara_leases_committed_total", "site", n.name)
	n.mPreparedNow = reg.Gauge("gara_leases_prepared_live", "site", n.name)
	n.link.Instrument(reg, "site", n.name)
	n.cpu.Instrument(reg, "site", n.name)
}

// Registry returns the metrics registry the node was instrumented with
// (nil when uninstrumented) — the transport layer reaches it per session.
func (n *Node) Registry() *obs.Registry { return n.reg }

// NewNode creates a node with its CPU scheduler and outbound link.
func NewNode(sim *simtime.Simulator, name string, cap NodeCapacity) *Node {
	cpu := cpusched.New(sim, cpusched.DefaultQuantum)
	cpu.SetMaxUtilization(cap.CPUCores)
	return &Node{
		name:     name,
		cpu:      cpu,
		link:     netsim.NewLink(name+"-out", cap.NetBandwidth),
		capacity: cap.Vector(),
	}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// CPU exposes the node's CPU scheduler (for best-effort jobs and direct
// submission by the transport layer).
func (n *Node) CPU() *cpusched.CPU { return n.cpu }

// Link exposes the node's outbound link.
func (n *Node) Link() *netsim.Link { return n.link }

// Capacity returns the node's total resource vector — the bucket heights
// R_i of the LRB cost model (Eq. 1).
func (n *Node) Capacity() qos.ResourceVector { return n.capacity }

// Usage returns the node's current reserved/used resource vector — the
// bucket fillings U_i of Eq. 1, assembled from the resource managers.
func (n *Node) Usage() qos.ResourceVector {
	var v qos.ResourceVector
	v[qos.ResCPU] = n.cpu.ReservedUtilization()
	v[qos.ResNetBandwidth] = n.netResv
	v[qos.ResDiskBandwidth] = n.diskUsed
	v[qos.ResMemory] = n.memUsed
	return v
}

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// Watch registers fn to be called on every node state transition (crash,
// restart); Down tells which. Watchers fire in registration order, after
// the transition is complete; one registered while they fire waits for the
// next transition.
func (n *Node) Watch(fn func()) {
	if fn == nil {
		return
	}
	n.watchers = append(n.watchers, fn)
}

// Fail crashes the node: every live lease is revoked (oldest first, so
// holders observe failures in admission order), the outbound link is
// partitioned, and further reservations fail with ErrNodeDown until
// Restore. Idempotent.
//
// The whole resource teardown comes first — down is set before the
// revocation sweep, and by the time the link partitions no lease-held
// bandwidth remains. Holder callbacks and then watchers fire after it.
func (n *Node) Fail() {
	if n.down {
		return
	}
	n.down = true
	n.mCrashes.Inc()
	cause := fmt.Errorf("%w: %s crashed", ErrNodeDown, n.name)
	var fire []func()
	for _, l := range append([]*Lease(nil), n.live...) {
		if cb, err := l.withdraw(cause); cb != nil {
			fire = append(fire, func() { cb(err) })
		}
	}
	n.link.Partition()
	ws := n.watchers // a watcher a revoke handler registers waits for the next transition
	for _, f := range fire {
		f()
	}
	for _, fn := range ws {
		fn()
	}
}

// Restore restarts a crashed node with empty resource managers — the state
// a process has after a crash-restart cycle (all prior leases were revoked
// by Fail). Idempotent.
func (n *Node) Restore() {
	if !n.down {
		return
	}
	n.down = false
	n.mRestores.Inc()
	n.link.Restore()
	for _, fn := range n.watchers {
		fn()
	}
}

// RevokeOldestLease revokes the longest-lived lease on the node — the
// fault injector's operator-revocation event (e.g. a preempted allocation
// in a shared cluster). It reports whether a lease was revoked.
func (n *Node) RevokeOldestLease(cause error) bool {
	if len(n.live) == 0 {
		return false
	}
	if cause == nil {
		cause = ErrLeaseRevoked
	}
	n.live[0].Revoke(cause)
	return true
}

// Lease is an end-to-end resource reservation on one node. A lease born via
// Reserve is committed immediately (the collocated fast path); one born via
// Prepare holds its resources but stays in the prepared state until Commit
// seals it or Release/Revoke returns the resources — the two-phase
// reservation states of the distributed control plane.
type Lease struct {
	node     *Node
	vec      qos.ResourceVector
	name     string
	cpuJob   *cpusched.Job
	netResv  *netsim.Reservation
	released bool
	revoked  bool
	prepared bool
	onRevoke func(cause error)
}

// Reserve acquires the demand vector for a delivery job. The
// period parameter sets the CPU reservation granularity (normally the
// stream's frame interval). Reservation is all-or-nothing: on any failure
// every partial acquisition is rolled back and ErrRejected is returned.
func (n *Node) Reserve(name string, v qos.ResourceVector, period simtime.Time) (*Lease, error) {
	if period <= 0 {
		return nil, fmt.Errorf("gara: non-positive period %v", period)
	}
	return n.reserve(name, v, period)
}

func (n *Node) reserve(name string, v qos.ResourceVector, period simtime.Time) (*Lease, error) {
	if n.down {
		return nil, fmt.Errorf("%w: %s", ErrNodeDown, n.name)
	}
	// Cheap checks first: disk and memory counters.
	if n.diskUsed+v[qos.ResDiskBandwidth] > n.capacity[qos.ResDiskBandwidth]+1e-9 ||
		n.memUsed+v[qos.ResMemory] > n.capacity[qos.ResMemory]+1e-9 {
		return nil, fmt.Errorf("%w: disk/memory on %s", ErrRejected, n.name)
	}
	l := &Lease{node: n, vec: v, name: name}
	if v[qos.ResNetBandwidth] > 0 {
		r, err := n.link.Reserve(v[qos.ResNetBandwidth])
		if err != nil {
			// %w-wrap the specific cause (ErrLinkDown,
			// ErrInsufficientBandwidth) so admission rejections stay
			// diagnosable through the whole ErrRejected chain.
			return nil, fmt.Errorf("%w: %w", ErrRejected, err)
		}
		// A link fault (partition or degradation) that sheds this
		// reservation revokes the whole lease: the end-to-end guarantee is
		// gone the moment any leg is.
		r.SetOnRevoke(func(cause error) { l.Revoke(cause) })
		l.netResv = r
		n.netResv += v[qos.ResNetBandwidth]
	}
	if v[qos.ResCPU] > 0 {
		slice := simtime.Time(float64(period) * v[qos.ResCPU])
		if slice <= 0 {
			slice = 1
		}
		job, err := n.cpu.NewReservedJob(period, slice)
		if err != nil {
			l.rollbackNet()
			return nil, fmt.Errorf("%w: %w", ErrRejected, err)
		}
		l.cpuJob = job
	}
	n.diskUsed += v[qos.ResDiskBandwidth]
	n.memUsed += v[qos.ResMemory]
	n.leases++
	n.mGranted.Inc()
	n.mLive.Set(int64(n.leases))
	n.live = append(n.live, l)
	return l, nil
}

// Prepare reserves the demand vector like Reserve but leaves the lease in
// the prepared state: resources are held (so a later Commit cannot fail for
// lack of capacity) yet the reservation is not considered sealed until
// Commit. A prepared lease is released/revoked exactly like a committed one;
// broker TTL timers use that to reclaim orphans after a coordinator vanishes
// mid-transaction.
func (n *Node) Prepare(name string, v qos.ResourceVector, period simtime.Time) (*Lease, error) {
	if period <= 0 {
		return nil, fmt.Errorf("gara: non-positive period %v", period)
	}
	l, err := n.reserve(name, v, period)
	if err != nil {
		return nil, err
	}
	l.prepared = true
	n.prepared++
	n.mPrepared.Inc()
	n.mPreparedNow.Set(int64(n.prepared))
	return l, nil
}

// Commit seals a prepared lease. Resources were already held at Prepare
// time, so commit cannot fail for lack of capacity — only because the lease
// is gone (released, revoked, or TTL-reclaimed). Committing an
// already-committed (or Reserve-born) lease is a no-op.
func (l *Lease) Commit() error {
	n := l.node
	if l.released {
		return fmt.Errorf("%w: commit %s on %s", ErrLeaseReleased, l.name, n.name)
	}
	if !l.prepared {
		return nil
	}
	l.prepared = false
	n.prepared--
	n.mCommitted.Inc()
	n.mPreparedNow.Set(int64(n.prepared))
	return nil
}

func (l *Lease) rollbackNet() {
	if l.netResv != nil {
		l.netResv.Release()
		l.node.netResv -= l.vec[qos.ResNetBandwidth]
		if l.node.netResv < 0 {
			l.node.netResv = 0
		}
		l.netResv = nil
	}
}

// Vector returns the reserved resource vector.
func (l *Lease) Vector() qos.ResourceVector { return l.vec }

// CPUJob returns the reserved CPU job backing the lease, or nil when the
// lease reserved no CPU.
func (l *Lease) CPUJob() *cpusched.Job { return l.cpuJob }

// NetReservation returns the link bandwidth reservation backing the lease,
// or nil when the lease reserved no bandwidth. Sessions read its effective
// (congestion-adjusted) rate to pace delivery at what the network actually
// carries rather than what was booked.
func (l *Lease) NetReservation() *netsim.Reservation { return l.netResv }

// Release returns every resource to the node. Idempotent: double release
// (and release after revocation) is a no-op, so CPU jobs and link
// reservations are never returned twice.
func (l *Lease) Release() {
	if l.released {
		return
	}
	l.released = true
	n := l.node
	if l.prepared {
		l.prepared = false
		n.prepared--
		n.mPreparedNow.Set(int64(n.prepared))
	}
	l.rollbackNet()
	if l.cpuJob != nil {
		l.cpuJob.Finish()
		l.cpuJob = nil
	}
	n.diskUsed -= l.vec[qos.ResDiskBandwidth]
	if n.diskUsed < 0 {
		n.diskUsed = 0
	}
	n.memUsed -= l.vec[qos.ResMemory]
	if n.memUsed < 0 {
		n.memUsed = 0
	}
	n.leases--
	if l.revoked {
		n.mRevoked.Inc()
	} else {
		n.mReleased.Inc()
	}
	n.mLive.Set(int64(n.leases))
	for i, x := range n.live {
		if x == l {
			n.live = append(n.live[:i], n.live[i+1:]...)
			break
		}
	}
}

// Revoked reports whether the node withdrew the lease (as opposed to the
// holder releasing it).
func (l *Lease) Revoked() bool { return l.revoked }

// SetOnRevoke registers a callback fired when the node withdraws the lease
// (node crash, link fault, operator revocation). The callback receives an
// error satisfying errors.Is(err, ErrLeaseRevoked). It never fires after a
// voluntary Release, and always fires after the lease's resources are back
// on the node.
func (l *Lease) SetOnRevoke(fn func(cause error)) { l.onRevoke = fn }

// Revoke is the fault path of Release: the node withdraws the lease,
// returning its resources, and notifies the holder with ErrLeaseRevoked
// wrapping the cause. Idempotent; a released lease cannot be revoked.
func (l *Lease) Revoke(cause error) {
	if cb, err := l.withdraw(cause); cb != nil {
		cb(err)
	}
}

// withdraw tears the lease down and hands back the holder callback (and the
// error to deliver), so Fail can finish its whole sweep before any fires.
func (l *Lease) withdraw(cause error) (func(cause error), error) {
	if l.released {
		return nil, nil
	}
	l.revoked = true
	err := fmt.Errorf("%w: %s on %s", ErrLeaseRevoked, l.name, l.node.name)
	if cause != nil {
		err = fmt.Errorf("%w: %s on %s: %w", ErrLeaseRevoked, l.name, l.node.name, cause)
	}
	l.Release()
	return l.onRevoke, err
}
