package gara

import (
	"errors"
	"testing"
	"time"
)

// Satellite regressions: idempotent release, revocation taxonomy, and node
// crash/restore semantics.

func TestDoubleReleaseIsNoOp(t *testing.T) {
	_, n := newNode()
	l, err := n.Reserve("s", demand(0.1, 500e3, 0, 0), 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	before := n.Usage()
	l.Release()
	if n.Usage() != before {
		t.Fatal("second Release changed usage")
	}
	if n.leases != 0 {
		t.Fatalf("leases = %d", n.leases)
	}
}

func TestRevokeAfterReleaseIsNoOp(t *testing.T) {
	_, n := newNode()
	l, err := n.Reserve("s", demand(0.1, 500e3, 0, 0), 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	l.SetOnRevoke(func(error) { fired++ })
	l.Release()
	l.Revoke(nil)
	if fired != 0 {
		t.Fatal("Revoke after Release fired the callback")
	}
	if l.Revoked() {
		t.Fatal("released lease marked revoked")
	}
}

func TestRevokeIsIdempotent(t *testing.T) {
	_, n := newNode()
	l, err := n.Reserve("s", demand(0.1, 500e3, 0, 0), 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	l.SetOnRevoke(func(error) { fired++ })
	l.Revoke(nil)
	l.Revoke(nil)
	if fired != 1 {
		t.Fatalf("onRevoke fired %d times, want 1", fired)
	}
	if !l.Revoked() {
		t.Fatal("lease not marked revoked")
	}
	if n.Usage() != demand(0, 0, 0, 0) {
		t.Fatalf("usage after revoke = %v", n.Usage())
	}
}

func TestNodeFailRevokesAllLeasesOldestFirst(t *testing.T) {
	_, n := newNode()
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		l, err := n.Reserve(name, demand(0.05, 300e3, 0, 0), 40*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		l.SetOnRevoke(func(error) { order = append(order, name) })
	}
	n.Fail()
	if len(order) != 3 || order[0] != "first" || order[2] != "third" {
		t.Fatalf("revocation order = %v", order)
	}
	if !n.Down() || !n.Link().Down() {
		t.Fatal("node or link not down after Fail")
	}
	n.Fail() // idempotent
	if len(order) != 3 {
		t.Fatal("second Fail re-revoked")
	}
}

func TestReserveOnDownNodeFailsTyped(t *testing.T) {
	_, n := newNode()
	n.Fail()
	_, err := n.Reserve("s", demand(0.1, 500e3, 0, 0), 40*time.Millisecond)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	n.Restore()
	if _, err := n.Reserve("s", demand(0.1, 500e3, 0, 0), 40*time.Millisecond); err != nil {
		t.Fatalf("reserve after restore: %v", err)
	}
}

func TestRevocationCauseTaxonomy(t *testing.T) {
	_, n := newNode()
	l, err := n.Reserve("s", demand(0.1, 500e3, 0, 0), 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var cause error
	l.SetOnRevoke(func(e error) { cause = e })
	n.Fail()
	if !errors.Is(cause, ErrLeaseRevoked) {
		t.Fatalf("cause %v does not match ErrLeaseRevoked", cause)
	}
	if !errors.Is(cause, ErrNodeDown) {
		t.Fatalf("cause %v does not match ErrNodeDown", cause)
	}
}

func TestRevokeOldestLease(t *testing.T) {
	_, n := newNode()
	a, _ := n.Reserve("a", demand(0.05, 300e3, 0, 0), 40*time.Millisecond)
	b, _ := n.Reserve("b", demand(0.05, 300e3, 0, 0), 40*time.Millisecond)
	if !n.RevokeOldestLease(nil) {
		t.Fatal("RevokeOldestLease found nothing")
	}
	if !a.Revoked() || b.Revoked() {
		t.Fatalf("revoked wrong lease: a=%v b=%v", a.Revoked(), b.Revoked())
	}
	b.Release()
	if n.RevokeOldestLease(nil) {
		t.Fatal("RevokeOldestLease succeeded on empty node")
	}
}
