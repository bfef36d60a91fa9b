// Package netsim models the network substrate of the paper's testbed: each
// server's outbound link (3200 KB/s in §5's setup), bandwidth reservations
// made through the composite QoS API, and max-min fair sharing of the
// unreserved remainder among best-effort streams (the original VDBMS's
// behaviour).
//
// The paper could not deploy DiffServ ("due to lack of router support ...
// only admission control is performed in network management"), so the
// interesting dynamics live at the server outbound links — "a reasonable
// assumption here is that the bottlenecking link is always the outband link
// of the servers". This package models exactly that bottleneck.
package netsim

import (
	"errors"
	"fmt"
	"sort"

	"quasaq/internal/obs"
)

// ErrInsufficientBandwidth reports that a reservation exceeds the link's
// unreserved capacity.
var ErrInsufficientBandwidth = errors.New("netsim: insufficient bandwidth")

// ErrLinkDown reports an operation against a partitioned link.
var ErrLinkDown = errors.New("netsim: link down")

// Link is one direction of a network attachment with fixed capacity in
// bytes per second. Reserved bandwidth is guaranteed; best-effort flows
// share what remains, max-min fairly.
//
// A link can be degraded (capacity scaled down) or partitioned (down) by
// the fault injector; reservations that no longer fit are revoked
// newest-first and their holders notified through the revocation callback.
type Link struct {
	name     string
	base     float64 // configured capacity
	capacity float64 // effective capacity (base x degradation factor)
	down     bool

	reserved   float64
	resvs      []*Reservation // live reservations, oldest first
	flows      []*Flow
	congestion float64 // achieved-rate factor in (0,1]; 1 = uncongested

	peakReserved float64

	// Registry handles, nil (no-op) until Instrument is called.
	mReservations *obs.Counter
	mRejects      *obs.Counter
	mRevocations  *obs.Counter
	mFaults       *obs.Counter
	mReserved     *obs.FloatGauge
	mCapacity     *obs.FloatGauge
	mPeak         *obs.FloatGauge
}

// NewLink creates a link with the given capacity in bytes per second.
func NewLink(name string, capacity float64) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: non-positive capacity %v", capacity))
	}
	return &Link{name: name, base: capacity, capacity: capacity, congestion: 1}
}

// Down reports whether the link is partitioned.
func (l *Link) Down() bool { return l.down }

// Instrument wires the link's accounting onto the metrics registry under
// the given label pairs (conventionally "site", name). Call once at
// construction time, before traffic flows.
func (l *Link) Instrument(reg *obs.Registry, labels ...string) {
	l.mReservations = reg.Counter("netsim_reservations_total", labels...)
	l.mRejects = reg.Counter("netsim_reservation_rejects_total", labels...)
	l.mRevocations = reg.Counter("netsim_reservation_revocations_total", labels...)
	l.mFaults = reg.Counter("netsim_link_faults_total", labels...)
	l.mReserved = reg.FloatGauge("netsim_reserved_bytes", labels...)
	l.mCapacity = reg.FloatGauge("netsim_capacity_bytes", labels...)
	l.mPeak = reg.FloatGauge("netsim_peak_reserved_bytes", labels...)
	l.mCapacity.Set(l.capacity)
}

// Available returns capacity not held by reservations, clamped at zero:
// a degradation below the reserved total (reservations are shed
// newest-first, but revocation callbacks observe the link mid-shed) must
// read as "no headroom", never as negative headroom that would corrupt
// downstream cost and admission arithmetic.
func (l *Link) Available() float64 {
	a := l.capacity - l.reserved
	if a < 0 {
		return 0
	}
	return a
}

// Reservation is a bandwidth guarantee on a link.
type Reservation struct {
	link     *Link
	rate     float64
	released bool
	onRevoke func(cause error)
}

// EffectiveRate returns the rate the reservation actually achieves: the
// booked rate on an uncongested link, or its max-min fair share of the
// congested capacity (zero once released). This is the observable the QoS
// guardian samples — the guarantee as experienced, not as booked.
func (r *Reservation) EffectiveRate() float64 {
	if r.released {
		return 0
	}
	return r.link.effectiveResvRate(r)
}

// SetOnRevoke registers a callback fired when the link withdraws the
// reservation because of a fault (partition or degradation below the
// reserved total). It never fires after a voluntary Release.
func (r *Reservation) SetOnRevoke(fn func(cause error)) { r.onRevoke = fn }

// Release returns the bandwidth to the link. Idempotent.
func (r *Reservation) Release() {
	if r.released {
		return
	}
	r.released = true
	r.link.drop(r)
	r.link.recompute()
}

// revoke is the fault path: the link withdraws the guarantee and notifies
// the holder.
func (r *Reservation) revoke(cause error) {
	if r.released {
		return
	}
	r.released = true
	r.link.mRevocations.Inc()
	r.link.drop(r)
	if r.onRevoke != nil {
		r.onRevoke(cause)
	}
}

// drop removes the reservation from the link's accounting (no recompute).
func (l *Link) drop(r *Reservation) {
	l.reserved -= r.rate
	if l.reserved < 0 {
		l.reserved = 0
	}
	l.mReserved.Set(l.reserved)
	for i, x := range l.resvs {
		if x == r {
			l.resvs = append(l.resvs[:i], l.resvs[i+1:]...)
			break
		}
	}
}

// Reserve guarantees rate bytes per second, failing if the unreserved
// capacity cannot cover it. Best-effort flows are squeezed accordingly.
func (l *Link) Reserve(rate float64) (*Reservation, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("netsim: non-positive reservation %v", rate)
	}
	if l.down {
		l.mRejects.Inc()
		return nil, fmt.Errorf("%w: %s", ErrLinkDown, l.name)
	}
	if l.reserved+rate > l.capacity+1e-9 {
		l.mRejects.Inc()
		return nil, fmt.Errorf("%w: want %.0f, available %.0f of %.0f",
			ErrInsufficientBandwidth, rate, l.Available(), l.capacity)
	}
	l.reserved += rate
	if l.reserved > l.peakReserved {
		l.peakReserved = l.reserved
	}
	l.mReservations.Inc()
	l.mReserved.Set(l.reserved)
	l.mPeak.Set(l.peakReserved)
	r := &Reservation{link: l, rate: rate}
	l.resvs = append(l.resvs, r)
	l.recompute()
	return r, nil
}

// Degrade scales the link's capacity to factor x the configured capacity —
// the fault injector's partial-failure knob (congestion collapse, flapping
// interface). Reservations that no longer fit are revoked newest-first,
// so the oldest admitted streams keep their guarantees. factor must be in
// (0, 1]; Restore undoes the degradation.
func (l *Link) Degrade(factor float64) {
	if !(factor > 0 && factor <= 1) { // also rejects NaN
		panic(fmt.Sprintf("netsim: degradation factor %v outside (0,1]", factor))
	}
	l.capacity = l.base * factor
	l.mFaults.Inc()
	l.mCapacity.Set(l.capacity)
	l.shedReservations(fmt.Errorf("%w: %s degraded to %.0f B/s", ErrInsufficientBandwidth, l.name, l.capacity))
	l.recompute()
}

// Partition takes the link down entirely: every reservation is revoked
// (newest-first), best-effort flows drop to zero rate, and further
// Reserve calls fail with ErrLinkDown until Restore.
func (l *Link) Partition() {
	l.down = true
	l.capacity = 0
	l.mFaults.Inc()
	l.mCapacity.Set(0)
	l.shedReservations(fmt.Errorf("%w: %s partitioned", ErrLinkDown, l.name))
	l.recompute()
}

// Congest models cross-traffic squeezing the link's achieved throughput to
// factor x the effective capacity without invalidating admission state.
// Unlike Degrade, no reservation is revoked: the bookings stand, but the
// rates actually achieved drop — the paper's deployment had no DiffServ
// ("only admission control is performed in network management"), so nothing
// polices the queues when external traffic appears. Reserved streams split
// the congested capacity max-min fairly among themselves (smaller
// reservations still fit in full); best-effort flows share any remainder.
// factor must be in (0,1]; Congest(1) or Restore clears the congestion.
func (l *Link) Congest(factor float64) {
	if !(factor > 0 && factor <= 1) { // also rejects NaN
		panic(fmt.Sprintf("netsim: congestion factor %v outside (0,1]", factor))
	}
	if factor == l.congestion {
		return
	}
	l.congestion = factor
	if factor < 1 {
		l.mFaults.Inc()
	}
	l.recompute()
}

// effectiveCapacity is the throughput actually achievable right now:
// capacity scaled by congestion.
func (l *Link) effectiveCapacity() float64 { return l.capacity * l.congestion }

// reservedEffective returns the total rate reserved streams actually
// achieve: the full booked total when uncongested, otherwise capped by the
// congested capacity (the max-min split over reservations sums to exactly
// this).
func (l *Link) reservedEffective() float64 {
	eff := l.effectiveCapacity()
	if l.reserved < eff {
		return l.reserved
	}
	return eff
}

// effectiveResvRate waterfills the congested capacity over the live
// reservations (ascending booked rate — max-min fairness, so the smallest
// bookings are satisfied in full first) and returns target's share. On an
// uncongested link this is exactly the booked rate.
func (l *Link) effectiveResvRate(target *Reservation) float64 {
	if l.congestion >= 1 {
		return target.rate
	}
	n := len(l.resvs)
	order := make([]*Reservation, n)
	copy(order, l.resvs)
	sort.SliceStable(order, func(i, j int) bool { return order[i].rate < order[j].rate })
	remaining := l.effectiveCapacity()
	for i, r := range order {
		share := remaining / float64(n-i)
		rate := r.rate
		if rate > share {
			rate = share
		}
		remaining -= rate
		if r == target {
			return rate
		}
	}
	return 0
}

// Restore clears any partition, degradation, or congestion, returning the
// link to its configured capacity.
func (l *Link) Restore() {
	l.down = false
	l.capacity = l.base
	l.congestion = 1
	l.mCapacity.Set(l.capacity)
	l.recompute()
}

// shedReservations revokes reservations newest-first until the reserved
// total fits the (possibly zero) effective capacity.
func (l *Link) shedReservations(cause error) {
	for l.reserved > l.capacity+1e-9 && len(l.resvs) > 0 {
		l.resvs[len(l.resvs)-1].revoke(cause)
	}
}

// Flow is a best-effort traffic stream. Its achieved rate is recomputed
// whenever link membership or reservations change; onRate (optional) is
// invoked with the new rate.
type Flow struct {
	link   *Link
	demand float64
	rate   float64
	onRate func(float64)
	left   bool
}

// Join adds a best-effort flow demanding up to demand bytes per second.
// The new flow's rate is set synchronously but its onRate callback is not
// invoked for this initial allocation (callers read Rate after joining);
// it fires on every later change.
func (l *Link) Join(demand float64, onRate func(float64)) *Flow {
	if demand <= 0 {
		panic(fmt.Sprintf("netsim: non-positive demand %v", demand))
	}
	f := &Flow{link: l, demand: demand, onRate: onRate}
	l.flows = append(l.flows, f)
	l.recomputeExcept(f)
	return f
}

// Rate returns the flow's current achieved rate in bytes per second.
func (f *Flow) Rate() float64 { return f.rate }

// SetDemand changes the demanded rate and recomputes shares.
func (f *Flow) SetDemand(d float64) {
	if f.left {
		return
	}
	if d <= 0 {
		panic(fmt.Sprintf("netsim: non-positive demand %v", d))
	}
	f.demand = d
	f.link.recompute()
}

// Leave removes the flow from the link. Idempotent.
func (f *Flow) Leave() {
	if f.left {
		return
	}
	f.left = true
	l := f.link
	for i, x := range l.flows {
		if x == f {
			l.flows = append(l.flows[:i], l.flows[i+1:]...)
			break
		}
	}
	f.rate = 0
	l.recompute()
}

// recompute performs max-min fair allocation of the unreserved capacity
// over the best-effort flows and notifies flows whose rate changed.
func (l *Link) recompute() { l.recomputeExcept(nil) }

// recomputeExcept reallocates rates, skipping the onRate notification for
// quiet (a freshly joined flow whose owner is still mid-construction).
func (l *Link) recomputeExcept(quiet *Flow) {
	n := len(l.flows)
	if n == 0 {
		return
	}
	avail := l.Available()
	if l.congestion < 1 {
		// Under congestion, best-effort flows see only what the congested
		// capacity leaves after the reserved streams' achieved rates.
		avail = l.effectiveCapacity() - l.reservedEffective()
	}
	if avail < 0 {
		avail = 0
	}
	// Waterfill in ascending demand order.
	order := make([]*Flow, n)
	copy(order, l.flows)
	sort.Slice(order, func(i, j int) bool { return order[i].demand < order[j].demand })
	remaining := avail
	for i, f := range order {
		share := remaining / float64(n-i)
		rate := f.demand
		if rate > share {
			rate = share
		}
		remaining -= rate
		if rate != f.rate {
			f.rate = rate
			if f.onRate != nil && f != quiet {
				f.onRate(rate)
			}
		}
	}
}
