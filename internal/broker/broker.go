package broker

import (
	"fmt"

	"quasaq/internal/gara"
	"quasaq/internal/obs"
	"quasaq/internal/simtime"
)

// prepEntry is one uncommitted prepared lease held by a broker.
type prepEntry struct {
	lease *gara.Lease
	timer *simtime.Event // TTL orphan reclaim (nil on the synchronous path)
}

// commitEntry remembers a recently committed transaction so a retried
// COMMIT (its ack was lost) stays idempotent, and a rollback ABORT arriving
// after the commit can still release the lease.
type commitEntry struct {
	lease  *gara.Lease
	forget *simtime.Event
}

// Broker is the per-site QoS broker actor: it owns the site's gara.Node and
// is the only code that reserves on it during two-phase admission. Handlers
// run synchronously at message-delivery time (the actor processes one
// message per simulator event); all three are idempotent so lost acks and
// bounded retries are safe.
type Broker struct {
	site string
	sim  *simtime.Simulator
	node *gara.Node

	prepared  map[uint64]*prepEntry
	committed map[uint64]*commitEntry

	mPrepares  *obs.Counter
	mPrepNacks *obs.Counter
	mCommits   *obs.Counter
	mAborts    *obs.Counter
	mExpired   *obs.Counter
}

// New creates the broker actor for a site. reg may be nil (metrics off).
func New(sim *simtime.Simulator, node *gara.Node, reg *obs.Registry) *Broker {
	site := node.Name()
	return &Broker{
		site:       site,
		sim:        sim,
		node:       node,
		prepared:   make(map[uint64]*prepEntry),
		committed:  make(map[uint64]*commitEntry),
		mPrepares:  reg.Counter("quasaq_ctrl_prepares_total", "site", site),
		mPrepNacks: reg.Counter("quasaq_ctrl_prepare_nacks_total", "site", site),
		mCommits:   reg.Counter("quasaq_ctrl_commits_total", "site", site),
		mAborts:    reg.Counter("quasaq_ctrl_aborts_total", "site", site),
		mExpired:   reg.Counter("quasaq_ctrl_orphans_expired_total", "site", site),
	}
}

// PendingPrepares returns the number of prepared transactions awaiting
// commit or abort — orphan-leak diagnostics for chaos tests.
func (b *Broker) PendingPrepares() int { return len(b.prepared) }

// Handle is the broker's message loop body, registered with Net.Register.
func (b *Broker) Handle(req Request) Reply {
	switch req.Op {
	case OpPrepare:
		return b.prepare(req)
	case OpCommit:
		return b.commit(req)
	case OpAbort:
		return b.abort(req)
	default:
		return Reply{Err: fmt.Errorf("broker: %s: unknown op %v", b.site, req.Op)}
	}
}

// prepare runs the node's admission control and, on success, holds the
// resources in a prepared lease. A TTL timer reclaims the lease if no
// commit or abort arrives — the orphan rule that keeps a partitioned
// coordinator from leaking capacity forever. Re-delivery of a PREPARE whose
// ack was lost returns the existing lease.
func (b *Broker) prepare(req Request) Reply {
	if e, ok := b.prepared[req.TxID]; ok {
		return Reply{OK: true, Lease: e.lease}
	}
	if ce, ok := b.committed[req.TxID]; ok {
		return Reply{OK: true, Lease: ce.lease}
	}
	lease, err := b.node.Prepare(req.Name, req.Vec, req.Period)
	if err != nil {
		b.mPrepNacks.Inc()
		return Reply{Err: err}
	}
	e := &prepEntry{lease: lease}
	if req.TTL > 0 {
		e.timer = b.sim.Schedule(req.TTL, func() {
			e.timer = nil
			if b.prepared[req.TxID] != e {
				return
			}
			delete(b.prepared, req.TxID)
			b.mExpired.Inc()
			lease.Release()
		})
	}
	// A fault revoking the prepared lease (node crash, link partition)
	// cleans the transaction up immediately — the coordinator's commit will
	// find it gone and roll back.
	lease.SetOnRevoke(func(error) { b.drop(req.TxID, e) })
	b.prepared[req.TxID] = e
	b.mPrepares.Inc()
	return Reply{OK: true, Lease: lease}
}

// drop removes a prepared entry whose lease the fault layer reclaimed.
func (b *Broker) drop(tx uint64, e *prepEntry) {
	if b.prepared[tx] != e {
		return
	}
	delete(b.prepared, tx)
	if e.timer != nil {
		b.sim.Cancel(e.timer)
		e.timer = nil
	}
}

// commit seals a prepared lease. Unknown transactions (TTL-expired, revoked
// by a fault, or never prepared) are NACKed with ErrUnknownTx; the
// coordinator rolls back. A committed transaction is remembered for the TTL
// window so commit retries ack idempotently.
func (b *Broker) commit(req Request) Reply {
	if ce, ok := b.committed[req.TxID]; ok {
		return Reply{OK: true, Lease: ce.lease}
	}
	e, ok := b.prepared[req.TxID]
	if !ok {
		return Reply{Err: fmt.Errorf("%w: commit tx %d at %s", ErrUnknownTx, req.TxID, b.site)}
	}
	delete(b.prepared, req.TxID)
	if e.timer != nil {
		b.sim.Cancel(e.timer)
		e.timer = nil
	}
	if err := e.lease.Commit(); err != nil {
		return Reply{Err: err}
	}
	// The broker's bookkeeping revocation hook served the prepared window;
	// from commit on, the lease belongs to the delivery pipeline, which
	// installs its own failure wiring.
	e.lease.SetOnRevoke(nil)
	b.mCommits.Inc()
	if req.TTL > 0 {
		ce := &commitEntry{lease: e.lease}
		ce.forget = b.sim.Schedule(req.TTL, func() {
			if b.committed[req.TxID] == ce {
				delete(b.committed, req.TxID)
			}
		})
		b.committed[req.TxID] = ce
	}
	return Reply{OK: true, Lease: e.lease}
}

// abort releases a transaction's lease, whether still prepared or already
// committed (the coordinator rolling back a partially committed
// reservation). Aborting an unknown transaction acks silently — it may have
// TTL-expired already, and abort must stay idempotent under retry.
func (b *Broker) abort(req Request) Reply {
	if e, ok := b.prepared[req.TxID]; ok {
		delete(b.prepared, req.TxID)
		if e.timer != nil {
			b.sim.Cancel(e.timer)
			e.timer = nil
		}
		e.lease.SetOnRevoke(nil)
		e.lease.Release()
		b.mAborts.Inc()
		return Reply{OK: true}
	}
	if ce, ok := b.committed[req.TxID]; ok {
		delete(b.committed, req.TxID)
		if ce.forget != nil {
			b.sim.Cancel(ce.forget)
		}
		ce.lease.Release()
		b.mAborts.Inc()
		return Reply{OK: true}
	}
	return Reply{OK: true}
}
