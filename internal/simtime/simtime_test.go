package simtime

import (
	"container/heap"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSimulator()
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	s := NewSimulator()
	fired := false
	e := s.Schedule(time.Second, func() { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double cancel is a no-op
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if len(s.queue) != 0 || e.index != 0 {
		t.Fatalf("cancelled event still queued (%d pending)", len(s.queue))
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := NewSimulator()
	e := s.Schedule(time.Millisecond, func() {})
	s.Run()
	fired := false
	s.Schedule(time.Second, func() { fired = true })
	s.Cancel(e) // e has left the queue: the pending event must survive
	s.Run()
	if !fired {
		t.Fatal("cancelling a fired event removed a pending one")
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSimulator()
	var fired []int
	s.Schedule(time.Second, func() { fired = append(fired, 1) })
	s.Schedule(3*time.Second, func() { fired = append(fired, 2) })
	s.RunUntil(2 * time.Second)
	if len(fired) != 1 {
		t.Fatalf("fired = %v, want only first event", fired)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", s.Now())
	}
	if len(s.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(s.queue))
	}
	s.RunUntil(5 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both events", fired)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewSimulator()
	var times []Time
	s.Schedule(time.Second, func() {
		times = append(times, s.Now())
		s.Schedule(time.Second, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[1] != 2*time.Second {
		t.Fatalf("nested scheduling broken: %v", times)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	s := NewSimulator()
	s.Schedule(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	s.ScheduleAt(500*time.Millisecond, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := NewSimulator()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.Schedule(-time.Second, func() {})
}

func TestTicker(t *testing.T) {
	s := NewSimulator()
	n := 0
	s.Every(100*time.Millisecond, func() bool {
		n++
		return n < 5
	})
	s.Run()
	if n != 5 {
		t.Fatalf("ticker fired %d times, want 5", n)
	}
	if s.Now() != 500*time.Millisecond {
		t.Fatalf("clock = %v, want 500ms", s.Now())
	}
}

func TestTickerStop(t *testing.T) {
	s := NewSimulator()
	n := 0
	tk := s.Every(100*time.Millisecond, func() bool { n++; return true })
	s.Schedule(250*time.Millisecond, tk.Stop)
	s.RunUntil(time.Second)
	if n != 2 {
		t.Fatalf("stopped ticker fired %d times, want 2", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		r := NewRand(42)
		out := make([]float64, 20)
		for i := range out {
			out[i] = float64(r.ExpDur(time.Second))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rand stream not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRand(7)
	f := r.Fork()
	// Drawing from the fork must not perturb the parent relative to a
	// parent that forked but never used the child.
	r2 := NewRand(7)
	f2 := r2.Fork()
	_ = f2
	for i := 0; i < 100; i++ {
		f.Float64()
	}
	for i := 0; i < 10; i++ {
		if r.Float64() != r2.Float64() {
			t.Fatal("fork draws perturbed parent stream")
		}
	}
}

func TestPickDistribution(t *testing.T) {
	r := NewRand(1)
	counts := [3]int{}
	w := []float64{1, 2, 7}
	for i := 0; i < 10000; i++ {
		counts[r.Pick(w)]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("weighted pick ordering wrong: %v", counts)
	}
	if counts[2] < 6000 || counts[2] > 8000 {
		t.Fatalf("heavy weight picked %d/10000, want ~7000", counts[2])
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(3)
	z := r.Zipf(1.0, 10)
	counts := make([]int, 10)
	for i := 0; i < 20000; i++ {
		counts[z()]++
	}
	if counts[0] <= counts[5] {
		t.Fatalf("zipf not skewed: %v", counts)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if err := quick.Check(func(ms uint16) bool {
		s := float64(ms) / 1000
		got := ToSeconds(Seconds(s))
		return got > s-1e-6 && got < s+1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSecondsSaturates(t *testing.T) {
	if Seconds(1e300) <= 0 {
		t.Fatal("Seconds overflowed instead of saturating")
	}
}

func TestExpDurMean(t *testing.T) {
	r := NewRand(11)
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.ExpDur(time.Second)
	}
	mean := sum / n
	if mean < 950*time.Millisecond || mean > 1050*time.Millisecond {
		t.Fatalf("ExpDur mean = %v, want ~1s", mean)
	}
}

// refSim is the event queue this package used before its typed heap:
// container/heap over (at, seq). It stays here as the reference the
// differential test compares the simulator's firing order against.
type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	e.index = -1
	*q = old[:len(old)-1]
	return e
}

type refSim struct {
	now Time
	seq uint64
	q   refQueue
}

func (s *refSim) Now() Time { return s.now }

func (s *refSim) schedule(delay Time, fn func(), _ bool) (cancel func()) {
	s.seq++
	e := &refEvent{at: s.now + delay, seq: s.seq, fn: fn}
	heap.Push(&s.q, e)
	return func() {
		if e.index >= 0 {
			heap.Remove(&s.q, e.index)
		}
	}
}

func (s *refSim) step() bool {
	if s.q.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.q).(*refEvent)
	s.now = e.at
	e.fn()
	return true
}

// simLoop drives the real simulator through all three of its entry points:
// handle-free Post for events the script never cancels, and for the rest
// Schedule alternating with Arm on caller-owned events that are re-armed
// once they have fired or been cancelled.
type simLoop struct {
	*Simulator
	n     int
	owned []*Event // fired or cancelled, free to re-arm
}

func (l *simLoop) schedule(delay Time, fn func(), cancellable bool) (cancel func()) {
	if !cancellable {
		l.Post(l.Now()+delay, Func(fn), 0)
		return nil
	}
	l.n++
	if l.n%2 == 0 {
		e := l.Schedule(delay, fn)
		return func() { l.Cancel(e) }
	}
	var e *Event
	if k := len(l.owned); k > 0 {
		e, l.owned = l.owned[k-1], l.owned[:k-1]
	} else {
		e = new(Event)
	}
	release := func() { l.owned = append(l.owned, e) }
	l.Arm(e, l.Now()+delay, Func(func() { release(); fn() }), 0)
	return func() {
		if e.index != 0 {
			l.Cancel(e)
			release()
		}
	}
}

func (l *simLoop) step() bool { return l.Step() }

type eventLoop interface {
	Now() Time
	schedule(delay Time, fn func(), cancellable bool) (cancel func())
	step() bool
}

type firing struct {
	id int
	at Time
}

// runScript plays a seeded random mix of schedules, same-instant bursts,
// cancels, and callbacks that schedule or cancel, and returns what fired
// when. Every draw comes from one stream, callbacks included, so two loops
// that ever disagree on order diverge for the rest of the script.
func runScript(seed int64, l eventLoop) []firing {
	rng := NewRand(seed)
	var log []firing
	type pending struct {
		id     int
		cancel func()
	}
	var live []*pending
	drop := func(p *pending) {
		for i, x := range live {
			if x == p {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	cancelOne := func() {
		if len(live) > 0 {
			p := live[rng.Intn(len(live))]
			p.cancel()
			drop(p)
		}
	}
	delay := func() Time { return Time(rng.Intn(6)) * time.Millisecond } // few values: many ties, some zero
	nextID := 0
	var add func(d Time, depth int)
	add = func(d Time, depth int) {
		p := &pending{id: nextID}
		nextID++
		cancellable := rng.Intn(2) == 0
		p.cancel = l.schedule(d, func() {
			log = append(log, firing{p.id, l.Now()})
			drop(p)
			switch rng.Intn(4) {
			case 0:
				if depth < 4 {
					add(delay(), depth+1)
				}
			case 1:
				cancelOne()
			}
		}, cancellable)
		if cancellable {
			live = append(live, p)
		}
	}
	for round := 0; round < 2000; round++ {
		switch rng.Intn(6) {
		case 0, 1:
			add(delay(), 0)
		case 2:
			d := delay()
			for k := rng.Intn(8); k >= 0; k-- {
				add(d, 0)
			}
		case 3:
			cancelOne()
		default:
			for k := rng.Intn(4); k >= 0; k-- {
				l.step()
			}
		}
	}
	for l.step() {
	}
	return append(log, firing{-1, l.Now()})
}

func TestHeapMatchesContainerHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want := runScript(seed, &refSim{})
		sim := NewSimulator()
		got := runScript(seed, &simLoop{Simulator: sim})
		if len(want) < 1000 {
			t.Fatalf("seed %d: script fired only %d events", seed, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if len(sim.queue) != 0 {
			t.Fatalf("seed %d: %d events left queued", seed, len(sim.queue))
		}
	}
}

type countHandler struct{ n, sum int }

func (c *countHandler) HandleEvent(arg int) { c.n++; c.sum += arg }

func TestPostAndFireAllocateNothing(t *testing.T) {
	s := NewSimulator()
	h := &countHandler{}
	post := func() {
		for i := 0; i < 32; i++ {
			s.Post(s.Now()+Time(i%5)*time.Millisecond, h, i)
		}
		s.Run()
	}
	post() // grows the queue and the free list once
	if a := testing.AllocsPerRun(100, post); a != 0 {
		t.Fatalf("Post+fire allocated %.1f times per 32 events, want 0", a)
	}
	if h.n != 32*102 {
		t.Fatalf("fired %d events, want %d", h.n, 32*102)
	}
}

func TestScheduleAndFireAllocateOnce(t *testing.T) {
	s := NewSimulator()
	fn := func() {}
	s.Schedule(0, fn)
	s.Run()
	if a := testing.AllocsPerRun(100, func() {
		s.Schedule(time.Millisecond, fn)
		s.Run()
	}); a > 1 {
		t.Fatalf("Schedule+fire allocated %.1f times, want at most 1 (the Event)", a)
	}
}

func TestTickerTickAllocatesNothing(t *testing.T) {
	s := NewSimulator()
	s.Every(time.Millisecond, func() bool { return true })
	s.RunUntil(time.Second)
	if a := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 10*time.Millisecond) }); a != 0 {
		t.Fatalf("ticker allocated %.1f times per 10 ticks, want 0", a)
	}
}

// A recycled event must not pin what it last called, must not be reachable
// through Cancel, and an owned event must be re-armable exactly when idle.
func TestEventLifecycle(t *testing.T) {
	s := NewSimulator()
	h := &countHandler{}
	s.Post(time.Millisecond, h, 7)
	s.Run()
	if len(s.free) != 1 || s.free[0].h != nil {
		t.Fatalf("fired Post event not recycled with its handler dropped: %+v", s.free)
	}

	var e Event
	s.Arm(&e, s.Now()+time.Millisecond, h, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("arming a queued event did not panic")
			}
		}()
		s.Arm(&e, s.Now()+time.Second, h, 2)
	}()
	s.Cancel(&e)
	s.Cancel(&e) // second cancel: no-op
	if e.index != 0 || e.h != nil || len(s.queue) != 0 {
		t.Fatalf("cancelled owned event: %+v, pending %d", e, len(s.queue))
	}
	s.Arm(&e, s.Now()+time.Millisecond, h, 3)
	s.Run()
	s.Cancel(&e) // after fire: no-op
	if h.sum != 7+3 {
		t.Fatalf("re-armed event: %+v, handler sum %d", e, h.sum)
	}
	if len(s.free) != 1 {
		t.Fatalf("owned event leaked into the free list (%d entries)", len(s.free))
	}
}
