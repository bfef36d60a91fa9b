package broker

import (
	"fmt"

	"quasaq/internal/gara"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// Participant is one site's share of a composite reservation: the delivery
// site's stream resources, plus — for remote plans — the replica site's
// relay resources.
type Participant struct {
	Site   string
	Name   string
	Vec    qos.ResourceVector
	Period simtime.Time
}

// Coordinator drives two-phase reservations over the control net. Phase one
// PREPAREs every participant in order (delivery site first, matching the
// pre-control-plane reservation order); phase two COMMITs them all. Any
// NACK or timeout rolls the transaction back: ABORTs are sent to every
// participant, and prepared leases whose abort is lost to a partition age
// out under their TTL — nothing leaks past PrepareTTL.
type Coordinator struct {
	net *Net
	seq uint64

	mTxns      *obs.Counter
	mRollbacks *obs.Counter
}

// NewCoordinator creates a coordinator on the net. reg may be nil.
func NewCoordinator(net *Net, reg *obs.Registry) *Coordinator {
	return &Coordinator{
		net:        net,
		mTxns:      reg.Counter("quasaq_ctrl_txns_total"),
		mRollbacks: reg.Counter("quasaq_ctrl_rollbacks_total"),
	}
}

// Reserve runs one two-phase reservation from origin across the
// participants and calls done exactly once: with the committed leases in
// participant order, or with the first refusal/timeout after rollback. On
// the synchronous net, done fires before Reserve returns with zero events
// scheduled — byte-for-byte the old direct-reservation path.
func (co *Coordinator) Reserve(origin string, parts []Participant, scope *obs.Scope, done func([]*gara.Lease, error)) {
	if len(parts) == 0 {
		done(nil, fmt.Errorf("broker: empty participant list"))
		return
	}
	co.mTxns.Inc()
	cfg := co.net.Config()
	ttl := simtime.Time(0)
	if !cfg.Synchronous() {
		ttl = cfg.PrepareTTL
	}
	base := co.seq
	co.seq += uint64(len(parts))
	tx := func(i int) uint64 { return base + uint64(i) }

	leases := make([]*gara.Lease, len(parts))

	// sendAbort tidies one participant, fire-and-forget: a lost abort is
	// covered by the prepare TTL (and, for committed legs, by the direct
	// release in rollbackCommitted).
	sendAbort := func(i int) {
		co.net.Call(origin, parts[i].Site,
			Request{Op: OpAbort, TxID: tx(i)},
			scope, func(Reply, error) {})
	}

	var commit func(i int)
	var prepare func(i int)

	// rollbackCommitted unwinds a failed commit phase: every lease was
	// prepare-acked, so the coordinator holds all the handles and releases
	// them directly (idempotent against the brokers' own aborts), then
	// tells every broker to forget the transaction.
	rollbackCommitted := func(err error) {
		co.mRollbacks.Inc()
		for i, l := range leases {
			if l != nil {
				l.Release()
			}
			sendAbort(i)
		}
		done(nil, err)
	}

	commit = func(i int) {
		if i == len(parts) {
			// A fault may have revoked a committed lease while later legs
			// were still in flight; never hand a dead lease to the
			// delivery pipeline.
			for j, l := range leases {
				if l.Revoked() {
					rollbackCommitted(fmt.Errorf("broker: lease at %s lost before handoff: %w",
						parts[j].Site, gara.ErrLeaseRevoked))
					return
				}
			}
			done(leases, nil)
			return
		}
		co.net.Call(origin, parts[i].Site,
			Request{Op: OpCommit, TxID: tx(i), TTL: ttl},
			scope, func(rep Reply, err error) {
				if err != nil { // partition or loss starved the retry budget
					rollbackCommitted(fmt.Errorf("broker: commit at %s: %w", parts[i].Site, err))
					return
				}
				if !rep.OK { // prepare TTL-expired or fault-revoked under us
					rollbackCommitted(fmt.Errorf("broker: commit at %s: %w", parts[i].Site, rep.Err))
					return
				}
				commit(i + 1)
			})
	}

	// rollbackPrepared unwinds a failed prepare phase: abort everything
	// touched so far (including the participant that just refused or timed
	// out — its prepare may have landed even if the ack did not).
	rollbackPrepared := func(through int, err error) {
		co.mRollbacks.Inc()
		for i := 0; i <= through; i++ {
			sendAbort(i)
		}
		done(nil, err)
	}

	prepare = func(i int) {
		if i == len(parts) {
			commit(0)
			return
		}
		p := parts[i]
		co.net.Call(origin, p.Site, Request{
			Op: OpPrepare, TxID: tx(i),
			Name: p.Name, Vec: p.Vec, Period: p.Period, TTL: ttl,
		}, scope, func(rep Reply, err error) {
			if err != nil {
				rollbackPrepared(i, err)
				return
			}
			if !rep.OK {
				// The broker's refusal is the node's own admission error;
				// pass it through unwrapped so rejection chains look
				// exactly as they did when reservations were direct calls.
				rollbackPrepared(i-1, rep.Err)
				return
			}
			leases[i] = rep.Lease
			prepare(i + 1)
		})
	}

	prepare(0)
}
