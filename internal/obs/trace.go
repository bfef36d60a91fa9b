package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"quasaq/internal/simtime"
)

// Tracer records per-session spans and instants on the virtual clock and
// exports them as Chrome trace_event JSON (load the file in
// chrome://tracing or https://ui.perfetto.dev to see the pipeline
// timeline). Processes map to sites and threads to sessions, so one row per
// delivery shows content lookup, plan enumeration, costing, reservation,
// streaming, GOP progress, failover and teardown in causal order.
//
// All methods are nil-safe no-ops, so instrumented code paths need no
// "tracing enabled?" conditionals.
type Tracer struct {
	now    func() simtime.Time
	events []traceEvent
	open   map[*Span]struct{} // started, not yet ended
	pids   map[string]int
	tids   map[string]map[string]int
}

type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds of virtual time
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant scope ("t" = thread)
	Args  map[string]any `json:"args,omitempty"`
}

// NewTracer creates a tracer reading virtual time from now.
func NewTracer(now func() simtime.Time) *Tracer {
	return &Tracer{
		now:  now,
		open: map[*Span]struct{}{},
		pids: map[string]int{},
		tids: map[string]map[string]int{},
	}
}

func micros(t simtime.Time) float64 { return float64(t) / 1e3 }

// ids resolves (and lazily allocates) the numeric pid/tid for a
// process/thread pair, emitting the Chrome metadata events on first use.
func (t *Tracer) ids(proc, thread string) (int, int) {
	pid, ok := t.pids[proc]
	if !ok {
		pid = len(t.pids) + 1
		t.pids[proc] = pid
		t.tids[proc] = map[string]int{}
		t.events = append(t.events, traceEvent{
			Name: "process_name", Phase: "M", PID: pid, TID: 0,
			Args: map[string]any{"name": proc},
		})
	}
	tid, ok := t.tids[proc][thread]
	if !ok {
		tid = len(t.tids[proc]) + 1
		t.tids[proc][thread] = tid
		t.events = append(t.events, traceEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": thread},
		})
	}
	return pid, tid
}

// Scope returns an emitter bound to one process (site) and thread
// (session). Scopes are cheap; make one per delivery.
func (t *Tracer) Scope(proc, thread string) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{t: t, proc: proc, thread: thread}
}

// Scope binds span emission to a (process, thread) pair.
type Scope struct {
	t      *Tracer
	proc   string
	thread string
}

// Enabled reports whether the scope records anything. Callers on hot paths
// check it before building argument maps, so an untraced run pays nothing.
func (s *Scope) Enabled() bool { return s != nil }

// Span opens a span named name at the current virtual time. Close it with
// End; a never-ended span is exported as an open "B" event so mid-stream
// exports stay valid.
func (s *Scope) Span(name string, args map[string]any) *Span {
	if s == nil {
		return nil
	}
	sp := &Span{scope: s, name: name, start: s.t.now(), args: args}
	s.t.open[sp] = struct{}{}
	return sp
}

// Instant records a zero-duration thread-scoped event.
func (s *Scope) Instant(name string, args map[string]any) {
	if s == nil {
		return
	}
	t := s.t
	pid, tid := t.ids(s.proc, s.thread)
	t.events = append(t.events, traceEvent{
		Name: name, Cat: "quasaq", Phase: "i", Scope: "t",
		TS: micros(t.now()), PID: pid, TID: tid, Args: args,
	})
}

// Span is one open interval on a scope's timeline.
type Span struct {
	scope *Scope
	name  string
	start simtime.Time
	args  map[string]any
	done  bool
}

// SetArg attaches (or overwrites) one argument on the span.
func (sp *Span) SetArg(k string, v any) {
	if sp == nil || sp.done {
		return
	}
	if sp.args == nil {
		sp.args = map[string]any{}
	}
	sp.args[k] = v
}

// End closes the span at the current virtual time, emitting a complete
// ("X") event. Idempotent.
func (sp *Span) End() {
	if sp == nil || sp.done {
		return
	}
	sp.done = true
	t := sp.scope.t
	dur := micros(t.now() - sp.start)
	delete(t.open, sp)
	pid, tid := t.ids(sp.scope.proc, sp.scope.thread)
	t.events = append(t.events, traceEvent{
		Name: sp.name, Cat: "quasaq", Phase: "X",
		TS: micros(sp.start), Dur: &dur, PID: pid, TID: tid, Args: sp.args,
	})
}

// Ended reports whether End ran (false for nil).
func (sp *Span) Ended() bool { return sp != nil && sp.done }

// Len returns the number of recorded events (zero for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// WriteJSON exports the trace in Chrome trace_event "JSON object format":
// {"traceEvents": [...], "displayTimeUnit": "ms"}. Events are sorted by
// timestamp (metadata first) so the export is deterministic for a
// deterministic run.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: tracing not enabled")
	}
	// Still-open spans (a stream running at export time) are emitted as "B"
	// begin events so mid-run exports keep every session visible; the trace
	// viewer extends them to the end of the timeline. Sorted for a
	// deterministic export.
	openSpans := make([]*Span, 0, len(t.open))
	for sp := range t.open {
		openSpans = append(openSpans, sp)
	}
	sort.Slice(openSpans, func(i, j int) bool {
		a, b := openSpans[i], openSpans[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.scope.proc != b.scope.proc {
			return a.scope.proc < b.scope.proc
		}
		if a.scope.thread != b.scope.thread {
			return a.scope.thread < b.scope.thread
		}
		return a.name < b.name
	})
	var opens []traceEvent
	for _, sp := range openSpans {
		pid, tid := t.ids(sp.scope.proc, sp.scope.thread)
		opens = append(opens, traceEvent{
			Name: sp.name, Cat: "quasaq", Phase: "B",
			TS: micros(sp.start), PID: pid, TID: tid, Args: sp.args,
		})
	}
	// Copy t.events after resolving ids so metadata lazily emitted for open
	// spans is included; the sort below must not reorder the recorded log.
	evs := append([]traceEvent(nil), t.events...)
	evs = append(evs, opens...)
	sort.SliceStable(evs, func(i, j int) bool {
		mi, mj := evs[i].Phase == "M", evs[j].Phase == "M"
		if mi != mj {
			return mi
		}
		return evs[i].TS < evs[j].TS
	})
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{TraceEvents: evs, DisplayTimeUnit: "ms"}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
