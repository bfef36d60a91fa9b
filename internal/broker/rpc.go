// Package broker is the distributed control plane of the reproduction: one
// QoS broker actor per site owning that site's gara.Node (§3.4, §4.2), and a
// control-RPC layer on the simulation clock carrying PREPARE / COMMIT /
// ABORT messages between sites. Cross-site admission becomes a two-phase
// reservation driven by a Coordinator: prepare leases (with a TTL) at every
// participant, commit once all participants acknowledge, abort — or let the
// TTL reclaim orphans — on timeout, loss, or partition.
//
// The zero Config is the synchronous fast path: calls are direct function
// invocations with no simulator events, no TTL timers, and no randomness,
// reproducing the pre-control-plane behaviour byte-for-byte. Any non-zero
// latency or loss switches the net to message passing with per-attempt
// timeouts and bounded retry; partitions of a site's link (the same
// netsim.Link faults that kill streams) then also silently eat its control
// traffic, so commits stall and prepared leases age out.
package broker

import (
	"errors"
	"fmt"

	"quasaq/internal/gara"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

// ErrControlTimeout reports that a control-plane RPC exhausted its retry
// budget without a reply — the caller cannot know whether the far side acted.
// Admission rejections caused by control-plane timeouts carry it %w-wrapped
// under core.ErrRejected.
var ErrControlTimeout = errors.New("broker: control-plane RPC timed out")

// ErrUnknownTx reports a COMMIT for a transaction the broker no longer
// holds: its prepare TTL expired, the lease was revoked by a fault, or the
// prepare never arrived. The coordinator treats it as a failed commit and
// rolls the reservation back.
var ErrUnknownTx = errors.New("broker: unknown or expired transaction")

// Config tunes the control-RPC layer. The zero value is the synchronous
// fast path (see the package comment).
type Config struct {
	// Latency is the one-way message delay between distinct sites. Zero
	// (with zero Loss) selects the synchronous direct-call path.
	Latency simtime.Time
	// Timeout bounds one RPC attempt (request + handler + reply). Zero
	// defaults to 4×Latency.
	Timeout simtime.Time
	// Retries is the number of re-sends after the first attempt times out.
	Retries int
	// Loss is the independent per-message-leg drop probability in [0, 1).
	Loss float64
	// Seed drives the loss coin flips (only consulted when Loss > 0).
	Seed int64
	// PrepareTTL bounds how long a broker holds an uncommitted prepared
	// lease before reclaiming it as an orphan. Zero defaults to
	// (Retries+2) × Timeout, long enough that a coordinator still retrying
	// cannot race its own prepare's expiry.
	PrepareTTL simtime.Time
	// Breaker enables per-site circuit breakers over cross-site calls; the
	// zero value disables them (see BreakerConfig).
	Breaker BreakerConfig
	// RetryBudget bounds total retry traffic to a token bucket refilled by
	// successes; the zero value disables it (see RetryBudgetConfig).
	RetryBudget RetryBudgetConfig
}

// Synchronous reports whether the config selects the direct-call fast path:
// no events, no timers, no message loss.
func (c Config) Synchronous() bool { return c.Latency == 0 && c.Loss == 0 }

// Normalized returns the config with its derived defaults filled in, as the
// net will actually run it — what Net.Config reports after SetConfig.
func (c Config) Normalized() Config { return c.withDefaults() }

// withDefaults fills the derived fields of an asynchronous config.
func (c Config) withDefaults() Config {
	if c.Synchronous() {
		return c
	}
	if c.Timeout <= 0 {
		c.Timeout = 4 * c.Latency
	}
	if c.Timeout <= 0 { // pure-loss config with zero latency
		c.Timeout = simtime.Seconds(0.05)
	}
	if c.PrepareTTL <= 0 {
		c.PrepareTTL = simtime.Time(c.Retries+2) * c.Timeout
	}
	return c
}

// Validate rejects configs the net cannot run.
func (c Config) Validate() error {
	if c.Latency < 0 || c.Timeout < 0 || c.PrepareTTL < 0 {
		return fmt.Errorf("broker: negative duration in config %+v", c)
	}
	if c.Retries < 0 {
		return fmt.Errorf("broker: negative retry budget %d", c.Retries)
	}
	if c.Loss < 0 || c.Loss >= 1 {
		return fmt.Errorf("broker: loss probability %v outside [0, 1)", c.Loss)
	}
	if c.Breaker.Threshold < 0 {
		return fmt.Errorf("broker: negative breaker threshold %d", c.Breaker.Threshold)
	}
	if c.RetryBudget.Burst < 0 {
		return fmt.Errorf("broker: negative retry-budget burst %v", c.RetryBudget.Burst)
	}
	return nil
}

// TestbedConfig returns realistic control-plane parameters for the paper's
// LAN testbed: 5 ms one-way latency, 40 ms per-attempt timeout, two
// retries, and a 250 ms prepare TTL.
func TestbedConfig() Config {
	return Config{
		Latency:    simtime.Seconds(0.005),
		Timeout:    simtime.Seconds(0.04),
		Retries:    2,
		PrepareTTL: simtime.Seconds(0.25),
	}
}

// Op is a control-plane message kind.
type Op int

const (
	OpPrepare Op = iota
	OpCommit
	OpAbort
)

func (o Op) String() string {
	switch o {
	case OpPrepare:
		return "prepare"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Request is one control-plane message from a coordinator to a broker.
type Request struct {
	Op   Op
	TxID uint64

	// Reservation payload (PREPARE only).
	Name   string
	Vec    qos.ResourceVector
	Period simtime.Time
	TTL    simtime.Time // orphan-reclaim deadline for the prepared lease
}

// Reply is a broker's answer. Err is the broker-side refusal (admission
// rejection, unknown transaction); transport-level failures surface as the
// error argument of the Call callback instead. Lease carries the in-process
// handle on PREPARE/COMMIT acks — message-passing discipline governs when
// state changes, but handles stay pointers within the simulation.
type Reply struct {
	OK    bool
	Err   error
	Lease *gara.Lease
}

// Handler processes one request at a broker, synchronously at delivery time.
type Handler func(Request) Reply

// netMetrics are the quasaq_ctrl_* series of the control plane.
type netMetrics struct {
	sent              [3]*obs.Counter // per-Op messages sent (attempts, not calls)
	dropped           *obs.Counter
	timeouts          *obs.Counter
	retries           *obs.Counter
	breakerOpens      *obs.Counter
	breakerFastFails  *obs.Counter
	retriesSuppressed *obs.Counter
}

func newNetMetrics(reg *obs.Registry) netMetrics {
	m := netMetrics{
		dropped:           reg.Counter("quasaq_ctrl_msgs_dropped_total"),
		timeouts:          reg.Counter("quasaq_ctrl_timeouts_total"),
		retries:           reg.Counter("quasaq_ctrl_retries_total"),
		breakerOpens:      reg.Counter("quasaq_ctrl_breaker_opens_total"),
		breakerFastFails:  reg.Counter("quasaq_ctrl_breaker_fastfails_total"),
		retriesSuppressed: reg.Counter("quasaq_ctrl_retries_suppressed_total"),
	}
	for op := OpPrepare; op <= OpAbort; op++ {
		m.sent[op] = reg.Counter("quasaq_ctrl_msgs_total", "op", op.String())
	}
	return m
}

// Net is the control-RPC layer: it routes requests to per-site handlers
// over the simulation clock under the configured latency, timeout, retry,
// and loss parameters. Same-site calls are always synchronous and free —
// a broker talking to itself is a function call in any deployment.
type Net struct {
	sim      *simtime.Simulator
	cfg      Config
	rng      *simtime.Rand
	handlers map[string]Handler
	down     func(site string) bool
	met      netMetrics
	breakers map[string]*siteBreaker
	tokens   float64 // retry-budget balance
}

// NewNet creates the control net. reg may be nil (metrics off).
func NewNet(sim *simtime.Simulator, cfg Config, reg *obs.Registry) (*Net, error) {
	n := &Net{
		sim:      sim,
		handlers: make(map[string]Handler),
		met:      newNetMetrics(reg),
		breakers: make(map[string]*siteBreaker),
	}
	if err := n.SetConfig(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// SetConfig swaps the control-plane parameters (latency, timeout, retry,
// loss, TTL). In-flight calls keep the config they started under.
func (n *Net) SetConfig(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n.cfg = cfg.withDefaults()
	if !n.cfg.Synchronous() && n.cfg.Loss > 0 {
		n.rng = simtime.NewRand(simtime.DeriveSeed(n.cfg.Seed, "ctrl-loss"))
	} else {
		n.rng = nil
	}
	n.breakers = make(map[string]*siteBreaker)
	n.tokens = n.cfg.RetryBudget.Burst
	return nil
}

// Config returns the active (defaults-filled) control-plane parameters.
func (n *Net) Config() Config { return n.cfg }

// Register installs the handler for a site's broker.
func (n *Net) Register(site string, h Handler) { n.handlers[site] = h }

// SetPartitionCheck wires the net to the fault layer: a site for which fn
// returns true (its link is partitioned or its node crashed) neither sends
// nor receives control messages — partitions stall commits, not just
// streams. Only consulted on the asynchronous path; the synchronous path
// models collocated brokers where the network is not in the loop.
func (n *Net) SetPartitionCheck(fn func(site string) bool) { n.down = fn }

// unreachable reports whether a site is cut off from control traffic.
func (n *Net) unreachable(site string) bool { return n.down != nil && n.down(site) }

// lost decides one message leg's fate: partition of either endpoint eats it
// deterministically; otherwise the loss coin flips.
func (n *Net) lost(from, to string) bool {
	if n.unreachable(from) || n.unreachable(to) {
		return true
	}
	return n.rng != nil && n.rng.Float64() < n.cfg.Loss
}

// Call sends req from one site to another and invokes done exactly once:
// with the broker's reply, or with an error wrapping ErrControlTimeout after
// the retry budget is spent. On the synchronous path (or same-site calls)
// done fires before Call returns, with zero simulator events scheduled.
// scope may be nil; each call records one ctrl_rpc span covering all
// attempts.
func (n *Net) Call(from, to string, req Request, scope *obs.Scope, done func(Reply, error)) {
	h, ok := n.handlers[to]
	if !ok {
		done(Reply{}, fmt.Errorf("broker: no broker registered at %q", to))
		return
	}
	if from == to || n.cfg.Synchronous() {
		done(h(req), nil)
		return
	}
	if n.cfg.Breaker.Enabled() && !n.admitCall(to) {
		n.met.breakerFastFails.Inc()
		done(Reply{}, fmt.Errorf("%w: %s unreachable, cooling down", ErrBrokerOpen, to))
		return
	}
	cfg := n.cfg
	var span *obs.Span // nil when not tracing: no argument is built for it
	if scope.Enabled() {
		span = scope.Span("ctrl_rpc", map[string]any{
			"op": req.Op.String(), "to": to, "tx": req.TxID,
		})
	}
	settled := false
	var timeoutEv *simtime.Event
	settle := func(rep Reply, err error, attempts int) {
		if settled {
			return
		}
		settled = true
		if timeoutEv != nil {
			n.sim.Cancel(timeoutEv)
			timeoutEv = nil
		}
		if cfg.Breaker.Enabled() {
			n.recordOutcome(to, err == nil)
		}
		if err == nil {
			n.refundRetryToken()
		}
		if span != nil {
			span.SetArg("attempts", attempts)
			if err != nil {
				span.SetArg("outcome", "timeout")
			} else if rep.OK {
				span.SetArg("outcome", "ok")
			} else {
				span.SetArg("outcome", fmt.Sprint(rep.Err))
			}
			span.End()
		}
		done(rep, err)
	}
	var attempt func(k int)
	attempt = func(k int) {
		n.met.sent[req.Op].Inc()
		if n.lost(from, to) {
			n.met.dropped.Inc()
		} else {
			n.sim.Schedule(cfg.Latency, func() {
				// Handler runs at delivery time; the site may have been cut
				// off (or restored) while the message was in flight.
				if n.unreachable(to) {
					n.met.dropped.Inc()
					return
				}
				rep := h(req)
				if n.lost(to, from) {
					n.met.dropped.Inc()
					return
				}
				n.sim.Schedule(cfg.Latency, func() {
					// The caller's own site may have been cut off while the
					// reply was in flight.
					if n.unreachable(from) {
						n.met.dropped.Inc()
						return
					}
					settle(rep, nil, k+1)
				})
			})
		}
		timeoutEv = n.sim.Schedule(cfg.Timeout, func() {
			if settled {
				return
			}
			timeoutEv = nil
			n.met.timeouts.Inc()
			if k < cfg.Retries {
				if n.takeRetryToken() {
					n.met.retries.Inc()
					attempt(k + 1)
					return
				}
				// Budget exhausted: fail now rather than add retry
				// traffic the overloaded control plane cannot absorb.
				n.met.retriesSuppressed.Inc()
			}
			settle(Reply{}, fmt.Errorf("%w: %s %s -> %s after %d attempts",
				ErrControlTimeout, req.Op, from, to, k+1), k+1)
		})
	}
	attempt(0)
}
