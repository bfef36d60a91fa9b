// Package faults injects deterministic failures into the QuaSAQ substrate.
//
// The paper's evaluation lives in a fault-free testbed; real QoS systems
// are judged by how they degrade. This package schedules fault events on
// the simtime clock — node crash/restart, link capacity degradation, link
// partition/restore, lease revocation — against registered gara nodes and
// netsim links, so the chaos experiment (and any caller) can measure
// failure detection, mid-stream failover, and graceful rejection under a
// reproducible schedule.
//
// A Schedule is an ordered list of timed events; the text form accepted by
// ParseSchedule is one event per line:
//
//	# offset  kind           target   [arg]
//	120s      node-crash     srv-b
//	300s      node-restart   srv-b
//	50s       link-degrade   srv-a    0.5
//	80s       link-congest   srv-a    0.6
//	400s      link-restore   srv-a
//	200s      link-partition srv-c
//	250s      lease-revoke   srv-a
//
// Offsets are Go durations from simulation start; '#' starts a comment.
// Link targets name the node whose outbound link is hit (links register
// under their owning node's name).
//
// When the cluster's control plane runs asynchronously (see
// internal/broker), node crashes and link partitions also cut the site off
// from PREPARE/COMMIT/ABORT traffic: in-flight two-phase reservations time
// out and roll back, and prepared leases on the cut side are reclaimed by
// TTL — the same fault stalls commits, not just streams.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"quasaq/internal/gara"
	"quasaq/internal/netsim"
	"quasaq/internal/simtime"
)

// Kind enumerates the injectable fault classes.
type Kind int

// The fault classes: whole-node crash/restart, partial and total link
// failures, and operator-style revocation of a single lease.
const (
	NodeCrash Kind = iota
	NodeRestart
	LinkDegrade
	LinkRestore
	LinkPartition
	LinkCongest
	LeaseRevoke
)

// String names the kind in the schedule text format.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case NodeRestart:
		return "node-restart"
	case LinkDegrade:
		return "link-degrade"
	case LinkRestore:
		return "link-restore"
	case LinkPartition:
		return "link-partition"
	case LinkCongest:
		return "link-congest"
	case LeaseRevoke:
		return "lease-revoke"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

var kindNames = map[string]Kind{
	"node-crash":     NodeCrash,
	"node-restart":   NodeRestart,
	"link-degrade":   LinkDegrade,
	"link-restore":   LinkRestore,
	"link-partition": LinkPartition,
	"link-congest":   LinkCongest,
	"lease-revoke":   LeaseRevoke,
}

// Event is one scheduled fault.
type Event struct {
	At     simtime.Time
	Kind   Kind
	Target string  // node name (links register under their node's name)
	Factor float64 // LinkDegrade/LinkCongest only: rate fraction in (0,1]
}

// String renders the event in the schedule text format.
func (e Event) String() string {
	if e.Kind == LinkDegrade || e.Kind == LinkCongest {
		return fmt.Sprintf("%v %s %s %g", e.At, e.Kind, e.Target, e.Factor)
	}
	return fmt.Sprintf("%v %s %s", e.At, e.Kind, e.Target)
}

// Schedule is an ordered fault plan.
type Schedule []Event

// Validate checks kinds, factors and ordering invariants (times need not be
// sorted; Apply sorts stably).
func (s Schedule) Validate() error {
	for i, e := range s {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d: negative time %v", i, e.At)
		}
		if e.Target == "" {
			return fmt.Errorf("faults: event %d: empty target", i)
		}
		switch e.Kind {
		case NodeCrash, NodeRestart, LinkRestore, LinkPartition, LeaseRevoke:
		case LinkDegrade, LinkCongest:
			if !(e.Factor > 0 && e.Factor <= 1) { // also rejects NaN
				return fmt.Errorf("faults: event %d: %v factor %v outside (0,1]", i, e.Kind, e.Factor)
			}
		default:
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// String renders the whole schedule, one event per line, parseable by
// ParseSchedule.
func (s Schedule) String() string {
	var b strings.Builder
	for _, e := range s {
		fmt.Fprintln(&b, e.String())
	}
	return b.String()
}

// ParseSchedule reads the text format described in the package comment.
func ParseSchedule(text string) (Schedule, error) {
	var out Schedule
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("faults: line %d: want 'offset kind target [arg]', got %q", lineNo+1, raw)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: bad offset %q: %v", lineNo+1, fields[0], err)
		}
		kind, ok := kindNames[fields[1]]
		if !ok {
			return nil, fmt.Errorf("faults: line %d: unknown fault kind %q", lineNo+1, fields[1])
		}
		e := Event{At: at, Kind: kind, Target: fields[2]}
		if kind == LinkDegrade || kind == LinkCongest {
			if len(fields) < 4 {
				return nil, fmt.Errorf("faults: line %d: %v needs a factor", lineNo+1, kind)
			}
			f, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("faults: line %d: bad factor %q: %v", lineNo+1, fields[3], err)
			}
			e.Factor = f
		}
		out = append(out, e)
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Record is one applied fault, for the experiment log.
type Record struct {
	Event
	Applied bool // false when the target was unknown or the event was a no-op
}

// Injector binds a schedule to concrete nodes and links on a simulator.
type Injector struct {
	sim   *simtime.Simulator
	nodes map[string]*gara.Node
	links map[string]*netsim.Link
	log   []Record
}

// NewInjector creates an injector with no targets registered.
func NewInjector(sim *simtime.Simulator) *Injector {
	return &Injector{
		sim:   sim,
		nodes: make(map[string]*gara.Node),
		links: make(map[string]*netsim.Link),
	}
}

// RegisterNode makes the node (and its outbound link, under the node's
// name) targetable by name.
func (in *Injector) RegisterNode(n *gara.Node) {
	in.nodes[n.Name()] = n
	in.links[n.Name()] = n.Link()
}

// Apply validates the schedule and arms every event on the simulator.
// Events at the same instant fire in schedule order (the simulator is FIFO
// within a timestamp), so runs are deterministic. An event earlier than the
// simulator's current time is an error, and then no event is armed.
func (in *Injector) Apply(s Schedule) error {
	if err := s.Validate(); err != nil {
		return err
	}
	now := in.sim.Now()
	for i, e := range s {
		if e.At < now {
			return fmt.Errorf("faults: event %d at %v is before now %v", i, e.At, now)
		}
	}
	ordered := append(Schedule(nil), s...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	for _, e := range ordered {
		e := e
		in.sim.ScheduleAt(e.At, func() { in.fire(e) })
	}
	return nil
}

// fire applies one event to its target, logging whether it took effect.
func (in *Injector) fire(e Event) {
	applied := false
	switch e.Kind {
	case NodeCrash:
		if n, ok := in.nodes[e.Target]; ok && !n.Down() {
			n.Fail()
			applied = true
		}
	case NodeRestart:
		if n, ok := in.nodes[e.Target]; ok && n.Down() {
			n.Restore()
			applied = true
		}
	case LinkDegrade:
		if l, ok := in.links[e.Target]; ok && !l.Down() {
			l.Degrade(e.Factor)
			applied = true
		}
	case LinkRestore:
		if l, ok := in.links[e.Target]; ok {
			l.Restore()
			applied = true
		}
	case LinkPartition:
		if l, ok := in.links[e.Target]; ok && !l.Down() {
			l.Partition()
			applied = true
		}
	case LinkCongest:
		// Soft congestion: reservations stay booked but achieved rates
		// drop. link-restore (or link-congest with factor 1) clears it.
		if l, ok := in.links[e.Target]; ok && !l.Down() {
			l.Congest(e.Factor)
			applied = true
		}
	case LeaseRevoke:
		if n, ok := in.nodes[e.Target]; ok && !n.Down() {
			applied = n.RevokeOldestLease(nil)
		}
	}
	in.log = append(in.log, Record{Event: e, Applied: applied})
}

// Log returns the applied-event records in firing order.
func (in *Injector) Log() []Record { return append([]Record(nil), in.log...) }
