// Overload protection for the control plane: per-site circuit breakers and
// a global retry budget.
//
// Under sustained overload the naive control net makes things worse: every
// admission burns the full per-request retry ladder against a saturated or
// partitioned site, multiplying the traffic exactly when the site can least
// absorb it, and holding the admission decision open for the whole ladder.
// The breaker converts that into a fast, cheap rejection (ErrBrokerOpen,
// carried %w-under core.ErrRejected by the admission path) after a few
// consecutive timeouts, then probes the site half-open after a cooldown of
// breakerCooldown RPC timeouts, one trial call at a time.
// The retry budget bounds the *global* volume of retries to a token bucket
// refilled as a fraction of successful calls, so retry traffic can never
// exceed a fixed fraction (retryRefund) of useful traffic.
//
// Both mechanisms are strictly opt-in: the zero BreakerConfig and zero
// RetryBudgetConfig disable them, preserving the legacy retry behaviour
// byte-for-byte.
package broker

import (
	"errors"
	"fmt"

	"quasaq/internal/simtime"
)

// ErrBrokerOpen reports that a control call was fast-failed because the
// target site's circuit breaker is open: recent calls to it timed out and
// the cooldown has not elapsed. Admission rejections caused by an open
// breaker carry it %w-wrapped under core.ErrRejected.
var ErrBrokerOpen = errors.New("broker: circuit open")

const (
	// breakerCooldown is how long an open breaker rejects calls before
	// letting a half-open probe through, in RPC timeouts.
	breakerCooldown = 8
	// retryRefund is the number of tokens refunded per successful call, so
	// retry traffic is bounded to roughly a tenth of the useful traffic in
	// steady state.
	retryRefund = 0.1
)

// BreakerConfig tunes the per-site circuit breakers. The zero value
// disables them.
type BreakerConfig struct {
	// Threshold is the number of consecutive transport-level failures
	// (retry-exhausted timeouts) to one site that trips its breaker open.
	// Zero disables the breaker entirely.
	Threshold int
}

// Enabled reports whether the breaker is active.
func (b BreakerConfig) Enabled() bool { return b.Threshold > 0 }

// RetryBudgetConfig tunes the global retry token bucket. The zero value
// disables it (per-call retries are then bounded only by Config.Retries).
type RetryBudgetConfig struct {
	// Burst is the bucket capacity in retry tokens; each retry attempt
	// spends one and each successful call refunds retryRefund. Zero
	// disables the budget.
	Burst float64
}

// Enabled reports whether the retry budget is active.
func (b RetryBudgetConfig) Enabled() bool { return b.Burst > 0 }

// breakerPhase is a site breaker's state-machine position.
type breakerPhase int

const (
	breakerClosed breakerPhase = iota
	breakerOpen
	breakerHalfOpen
)

func (p breakerPhase) String() string {
	switch p {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("phase(%d)", int(p))
	}
}

// siteBreaker is one site's circuit state on the sim clock.
type siteBreaker struct {
	phase     breakerPhase
	failures  int          // consecutive failures while closed
	openedAt  simtime.Time // when the breaker last opened
	until     simtime.Time // open holds until this instant
	probing   bool         // a half-open trial call is in flight
	openTotal simtime.Time // cumulative time spent open (completed spells)
}

// breaker returns (creating on demand) the target site's breaker state.
func (n *Net) breaker(site string) *siteBreaker {
	b, ok := n.breakers[site]
	if !ok {
		b = &siteBreaker{}
		n.breakers[site] = b
	}
	return b
}

// admitCall decides whether a call to the site may proceed, advancing
// open → half-open when the cooldown has elapsed.
func (n *Net) admitCall(to string) bool {
	b := n.breaker(to)
	switch b.phase {
	case breakerOpen:
		if n.sim.Now() < b.until {
			return false
		}
		b.openTotal += n.sim.Now() - b.openedAt
		b.phase = breakerHalfOpen
		b.probing = false
		fallthrough
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return true
	}
}

// recordOutcome folds one settled cross-site call into the target's breaker:
// any success closes the circuit; a transport failure trips a closed breaker
// at Threshold consecutive failures and re-opens a half-open one immediately.
func (n *Net) recordOutcome(to string, ok bool) {
	b := n.breaker(to)
	if ok {
		b.phase = breakerClosed
		b.failures = 0
		b.probing = false
		return
	}
	switch b.phase {
	case breakerHalfOpen:
		n.trip(b)
	case breakerClosed:
		b.failures++
		if b.failures >= n.cfg.Breaker.Threshold {
			n.trip(b)
		}
	}
}

// trip opens a breaker for the cooldown.
func (n *Net) trip(b *siteBreaker) {
	b.phase = breakerOpen
	b.failures = 0
	b.probing = false
	b.openedAt = n.sim.Now()
	b.until = b.openedAt + breakerCooldown*n.cfg.Timeout
	n.met.breakerOpens.Inc()
}

// BreakerOpenTime returns the cumulative time site breakers have spent open,
// including the in-progress spell of any breaker still open now.
func (n *Net) BreakerOpenTime() simtime.Time {
	var total simtime.Time
	for _, b := range n.breakers {
		total += b.openTotal
		if b.phase == breakerOpen {
			total += n.sim.Now() - b.openedAt
		}
	}
	return total
}

// takeRetryToken spends one retry token, reporting whether the retry may
// proceed. Always true when the budget is disabled.
func (n *Net) takeRetryToken() bool {
	if !n.cfg.RetryBudget.Enabled() {
		return true
	}
	if n.tokens >= 1 {
		n.tokens--
		return true
	}
	return false
}

// refundRetryToken credits the bucket for a successful call.
func (n *Net) refundRetryToken() {
	if !n.cfg.RetryBudget.Enabled() {
		return
	}
	n.tokens += retryRefund
	if n.tokens > n.cfg.RetryBudget.Burst {
		n.tokens = n.cfg.RetryBudget.Burst
	}
}
