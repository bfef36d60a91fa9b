package broker

import (
	"errors"
	"testing"

	"quasaq/internal/simtime"
)

func breakerCfg() Config {
	return Config{
		Latency: simtime.Seconds(0.005),
		Timeout: simtime.Seconds(0.04),
		Retries: 0,
		Breaker: BreakerConfig{Threshold: 3},
	}
}

// call issues one RPC to "b" and drains the sim, returning the settled error.
func call(w *world, tx uint64) error {
	var got error
	settled := false
	w.net.Call("a", "b", prepReq(tx, 0), nil, func(_ Reply, err error) { got = err; settled = true })
	w.sim.Run()
	if !settled {
		panic("broker test: call never settled")
	}
	return got
}

func TestBreakerOpensAfterConsecutiveTimeouts(t *testing.T) {
	w := newWorld(t, breakerCfg())
	w.cut["b"] = true
	for i := uint64(1); i <= 3; i++ {
		if err := call(w, i); !errors.Is(err, ErrControlTimeout) {
			t.Fatalf("call %d err = %v, want ErrControlTimeout", i, err)
		}
		if i < 3 {
			if st := w.net.breaker("b").phase.String(); st != "closed" {
				t.Fatalf("after %d timeouts breaker = %s, want closed", i, st)
			}
		}
	}
	if st := w.net.breaker("b").phase.String(); st != "open" {
		t.Fatalf("after threshold breaker = %s, want open", st)
	}
	// While open, calls fast-fail with ErrBrokerOpen without paying the
	// timeout: no virtual time passes.
	before := w.sim.Now()
	err := call(w, 4)
	if !errors.Is(err, ErrBrokerOpen) {
		t.Fatalf("open-breaker err = %v, want ErrBrokerOpen", err)
	}
	if w.sim.Now() != before {
		t.Fatalf("fast-fail consumed %v of virtual time", w.sim.Now()-before)
	}
	if n := counterValue(t, w.reg, "quasaq_ctrl_breaker_fastfails_total", nil); n != 1 {
		t.Fatalf("fastfails = %d, want 1", n)
	}
	if n := counterValue(t, w.reg, "quasaq_ctrl_breaker_opens_total", nil); n != 1 {
		t.Fatalf("opens = %d, want 1", n)
	}
}

func TestBreakerHalfOpenProbeClosesOnSuccess(t *testing.T) {
	w := newWorld(t, breakerCfg())
	w.cut["b"] = true
	for i := uint64(1); i <= 3; i++ {
		call(w, i)
	}
	if st := w.net.breaker("b").phase.String(); st != "open" {
		t.Fatalf("breaker = %s, want open", st)
	}
	// Heal the partition. Until the cooldown's last instant calls still
	// fast-fail; then the next call is the half-open probe, and its success
	// closes the breaker.
	w.cut["b"] = false
	b := w.net.breaker("b")
	if cooldown := b.until - b.openedAt; cooldown != 8*breakerCfg().Timeout {
		t.Fatalf("cooldown = %v, want 8 timeouts", cooldown)
	}
	w.sim.RunUntil(b.until - 1)
	if err := call(w, 4); !errors.Is(err, ErrBrokerOpen) {
		t.Fatalf("call before the cooldown ends err = %v, want ErrBrokerOpen", err)
	}
	w.sim.RunUntil(b.until)
	if err := call(w, 4); err != nil {
		t.Fatalf("probe err = %v", err)
	}
	if st := w.net.breaker("b").phase.String(); st != "closed" {
		t.Fatalf("after successful probe breaker = %s, want closed", st)
	}
	if err := call(w, 5); err != nil {
		t.Fatalf("post-close err = %v", err)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	w := newWorld(t, breakerCfg())
	w.cut["b"] = true
	for i := uint64(1); i <= 3; i++ {
		call(w, i)
	}
	w.sim.RunUntil(w.net.breaker("b").until)
	// Still partitioned: the probe times out and the breaker trips again.
	if err := call(w, 4); !errors.Is(err, ErrControlTimeout) {
		t.Fatalf("probe err = %v, want ErrControlTimeout", err)
	}
	if st := w.net.breaker("b").phase.String(); st != "open" {
		t.Fatalf("after failed probe breaker = %s, want open", st)
	}
	if n := counterValue(t, w.reg, "quasaq_ctrl_breaker_opens_total", nil); n != 2 {
		t.Fatalf("opens = %d, want 2", n)
	}
	if w.net.BreakerOpenTime() <= 0 {
		t.Fatal("open time not accounted")
	}
}

func TestRetryBudgetSuppressesRetries(t *testing.T) {
	cfg := Config{
		Latency:     simtime.Seconds(0.005),
		Timeout:     simtime.Seconds(0.04),
		Retries:     2,
		RetryBudget: RetryBudgetConfig{Burst: 1},
	}
	w := newWorld(t, cfg)
	w.cut["b"] = true
	// The first failing call spends the single retry token; its second
	// retry is suppressed (settling the call), as is the next call's first.
	call(w, 1)
	call(w, 2)
	if n := counterValue(t, w.reg, "quasaq_ctrl_retries_total", nil); n != 1 {
		t.Fatalf("retries spent = %d, want 1", n)
	}
	if n := counterValue(t, w.reg, "quasaq_ctrl_retries_suppressed_total", nil); n != 2 {
		t.Fatalf("retries suppressed = %d, want 2", n)
	}
	if tok := w.net.tokens; tok != 0 {
		t.Fatalf("tokens = %v, want 0", tok)
	}
	// Successes refund fractional tokens: ten of them rebuild one retry.
	w.cut["b"] = false
	for i := uint64(10); i < 20; i++ {
		if err := call(w, i); err != nil {
			t.Fatalf("healed call err = %v", err)
		}
	}
	if tok := w.net.tokens; tok < 0.99 || tok > 1 {
		t.Fatalf("tokens after refunds = %v, want ~1", tok)
	}
}

func TestBreakerDisabledIsUntouched(t *testing.T) {
	cfg := Config{Latency: simtime.Seconds(0.005), Timeout: simtime.Seconds(0.04), Retries: 1}
	w := newWorld(t, cfg)
	w.cut["b"] = true
	for i := uint64(1); i <= 5; i++ {
		if err := call(w, i); !errors.Is(err, ErrControlTimeout) {
			t.Fatalf("err = %v, want plain timeout with breaker off", err)
		}
	}
	if len(w.net.breakers) != 0 {
		t.Fatalf("breaker off, yet %d site breakers hold state", len(w.net.breakers))
	}
	if w.net.BreakerOpenTime() != 0 {
		t.Fatalf("open time = %v with breaker off", w.net.BreakerOpenTime())
	}
}
