// Package simtime provides the discrete-event simulation engine on which
// every QuaSAQ substrate runs.
//
// The paper's evaluation was carried out on three physical Solaris servers;
// this reproduction replaces wall-clock execution with a deterministic
// virtual clock so that thousand-second streaming experiments (Figures 5-7)
// complete in milliseconds and are exactly repeatable under a fixed seed.
//
// A Simulator owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in scheduling order (FIFO), which keeps
// causally-ordered handlers deterministic.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp measured from the simulation epoch (t = 0).
// It reuses time.Duration so that callers can write 500*time.Millisecond.
type Time = time.Duration

// Handler is the closure-free event target: a receiver plus the integer the
// event was posted with. A pointer receiver stored in the interface costs no
// allocation, which is what keeps the per-frame path allocation-free.
type Handler interface {
	HandleEvent(arg int)
}

// Func adapts a plain func to a Handler; the argument is ignored.
type Func func()

// HandleEvent calls f.
func (f Func) HandleEvent(int) { f() }

// Event is a scheduled callback. Schedule and ScheduleAt return it so that
// callers may cancel it before it fires; Arm queues one the caller owns.
type Event struct {
	at     Time
	seq    uint64
	h      Handler
	arg    int
	index  int32 // heap position + 1; zero while not queued (int32 keeps the Event at 48 bytes)
	pooled bool  // posted handle-free: returns to the free list when it leaves the queue
}

func (e *Event) before(o *Event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Simulator is a single-threaded discrete-event executor. It is not safe for
// concurrent use; QuaSAQ models concurrency with events, not goroutines, so
// that runs are reproducible.
type Simulator struct {
	now    Time
	seq    uint64
	queue  []*Event // binary min-heap on (at, seq); seq is unique, so the order is total
	free   []*Event // recycled handle-free events
	nEvent uint64   // total events executed (for overhead accounting)
}

// NewSimulator returns a simulator whose clock reads zero.
func NewSimulator() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.nEvent }

// Schedule runs fn after delay. A negative delay is an error in the caller;
// it panics because it would silently reorder causality.
func (s *Simulator) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("simtime: negative delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at, which must not precede the
// current clock.
func (s *Simulator) ScheduleAt(at Time, fn func()) *Event {
	if fn == nil {
		panic("simtime: nil event func")
	}
	e := &Event{}
	s.Arm(e, at, Func(fn), 0)
	return e
}

// Post calls h.HandleEvent(arg) at absolute virtual time at. It returns no
// handle, so the event cannot be cancelled, and because nobody can hold it
// the simulator recycles it as soon as it fires: the per-frame way to
// schedule.
func (s *Simulator) Post(at Time, h Handler, arg int) {
	var e *Event
	if n := len(s.free); n > 0 {
		e, s.free = s.free[n-1], s.free[:n-1]
	} else {
		e = &Event{pooled: true}
	}
	s.Arm(e, at, h, arg)
}

// Arm queues the caller-owned event e to call h.HandleEvent(arg) at absolute
// virtual time at. An event may be armed again once it has fired or been
// cancelled — a component with one timer outstanding at a time re-arms one
// Event value instead of allocating per use — but never while it is queued.
func (s *Simulator) Arm(e *Event, at Time, h Handler, arg int) {
	if at < s.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", at, s.now))
	}
	if e.index != 0 {
		panic("simtime: event armed while queued")
	}
	s.seq++
	e.at, e.seq, e.h, e.arg = at, s.seq, h, arg
	s.queue = append(s.queue, e)
	s.up(len(s.queue) - 1)
}

// Cancel removes the event from the queue if it is queued. It is safe to
// cancel an event twice or to cancel one that already fired (a no-op).
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.index == 0 {
		return
	}
	s.remove(int(e.index) - 1)
}

// remove takes the event at heap position i out of the queue and drops its
// handler, so neither a kept handle nor the free list pins the receiver.
func (s *Simulator) remove(i int) *Event {
	q := s.queue
	e, last := q[i], q[len(q)-1]
	q[len(q)-1] = nil
	s.queue = q[:len(q)-1]
	if e != last {
		s.queue[i] = last
		s.up(i)
		s.down(int(last.index) - 1)
	}
	e.index, e.h = 0, nil
	if e.pooled {
		s.free = append(s.free, e)
	}
	return e
}

// up and down restore the heap order around position i, keeping each
// event's index in step.
func (s *Simulator) up(i int) {
	q := s.queue
	e := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = int32(i + 1)
		i = p
	}
	q[i] = e
	e.index = int32(i + 1)
}

func (s *Simulator) down(i int) {
	q := s.queue
	e := q[i]
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(e) {
			break
		}
		q[i] = q[c]
		q[i].index = int32(i + 1)
		i = c
	}
	q[i] = e
	e.index = int32(i + 1)
}

// Step executes the single earliest event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	h, arg := s.queue[0].h, s.queue[0].arg
	e := s.remove(0)
	s.now = e.at
	s.nEvent++
	h.HandleEvent(arg)
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued.
func (s *Simulator) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Every schedules fn at now+interval, then repeatedly every interval, until
// fn returns false. It returns a handle that stops the repetition.
func (s *Simulator) Every(interval Time, fn func() bool) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("simtime: non-positive ticker interval %v", interval))
	}
	t := &Ticker{sim: s, interval: interval, fn: fn}
	s.Arm(&t.next, s.now+interval, t, 0)
	return t
}

// Ticker is a repeating event created by Every. It re-arms one Event of its
// own, so a tick allocates nothing.
type Ticker struct {
	sim      *Simulator
	interval Time
	fn       func() bool
	next     Event
	stopped  bool
}

// HandleEvent runs one tick and re-arms the ticker while fn asks for more.
// A tick whose fn stops the ticker and still returns true arms one last
// occurrence that does nothing; experiment outputs count that event.
func (t *Ticker) HandleEvent(int) {
	if t.stopped {
		return
	}
	if t.fn() {
		t.sim.Arm(&t.next, t.sim.now+t.interval, t, 0)
	} else {
		t.stopped = true
	}
}

// Stop cancels any pending occurrence. The ticker's fn never runs again.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.sim.Cancel(&t.next)
}

// Seconds converts a float seconds count to virtual Time, saturating rather
// than overflowing for absurd inputs.
func Seconds(s float64) Time {
	if math.IsInf(s, 1) || s > math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	return Time(s * float64(time.Second))
}

// ToSeconds converts a virtual Time to float seconds.
func ToSeconds(t Time) float64 { return float64(t) / float64(time.Second) }
