package cpusched

import (
	"errors"
	"testing"
	"time"

	"quasaq/internal/simtime"
)

func newCPU() (*simtime.Simulator, *CPU) {
	sim := simtime.NewSimulator()
	return sim, New(sim, DefaultQuantum)
}

func TestSingleTaskRunsImmediately(t *testing.T) {
	sim, cpu := newCPU()
	j := cpu.NewBestEffortJob()
	var done simtime.Time
	j.Submit(3*time.Millisecond, simtime.Func(func() { done = sim.Now() }), 0)
	sim.Run()
	if done != 3*time.Millisecond {
		t.Fatalf("completion = %v, want 3ms", done)
	}
}

func TestBestEffortFIFOWithinJob(t *testing.T) {
	sim, cpu := newCPU()
	j := cpu.NewBestEffortJob()
	var order []int
	j.Submit(time.Millisecond, simtime.Func(func() { order = append(order, 1) }), 0)
	j.Submit(time.Millisecond, simtime.Func(func() { order = append(order, 2) }), 0)
	sim.Run()
	if len(order) != 2 || order[0] != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestRoundRobinAlternatesJobs(t *testing.T) {
	// Two CPU-bound jobs with 25 ms tasks: with a 10 ms quantum each task
	// needs three turns, so completions interleave rather than run
	// back-to-back.
	sim, cpu := newCPU()
	a := cpu.NewBestEffortJob()
	b := cpu.NewBestEffortJob()
	var tA, tB simtime.Time
	a.Submit(25*time.Millisecond, simtime.Func(func() { tA = sim.Now() }), 0)
	b.Submit(25*time.Millisecond, simtime.Func(func() { tB = sim.Now() }), 0)
	sim.Run()
	// a runs [0,10) [20,30) [40,45); b runs [10,20) [30,40) [45,50).
	if tA != 45*time.Millisecond {
		t.Fatalf("a completed at %v, want 45ms", tA)
	}
	if tB != 50*time.Millisecond {
		t.Fatalf("b completed at %v, want 50ms", tB)
	}
}

func TestQuantumBurstsThroughBacklog(t *testing.T) {
	// The Figure 5c mechanism: a backlogged job, once dispatched, processes
	// all overdue frames inside one quantum, yielding near-zero
	// inter-completion gaps within the burst.
	sim, cpu := newCPU()
	hog := cpu.NewBestEffortJob()
	victim := cpu.NewBestEffortJob()
	hog.Submit(10*time.Millisecond, nil, 0)
	var completions []simtime.Time
	for i := 0; i < 4; i++ {
		victim.Submit(time.Millisecond, simtime.Func(func() { completions = append(completions, sim.Now()) }), 0)
	}
	sim.Run()
	if len(completions) != 4 {
		t.Fatalf("completions = %d", len(completions))
	}
	if completions[0] != 11*time.Millisecond {
		t.Fatalf("first completion %v, want 11ms (after hog's quantum)", completions[0])
	}
	for i := 1; i < 4; i++ {
		if gap := completions[i] - completions[i-1]; gap != time.Millisecond {
			t.Fatalf("burst gap %d = %v, want 1ms", i, gap)
		}
	}
}

func TestReservationAdmissionControl(t *testing.T) {
	_, cpu := newCPU()
	period := 40 * time.Millisecond
	// 0.5 + 0.3 admitted; +0.2 would exceed the 0.85 bound.
	if _, err := cpu.NewReservedJob(period, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.NewReservedJob(period, 12*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.NewReservedJob(period, 8*time.Millisecond); !errors.Is(err, ErrAdmission) {
		t.Fatalf("err = %v, want admission rejection", err)
	}
	if u := cpu.ReservedUtilization(); u < 0.79 || u > 0.81 {
		t.Fatalf("utilization = %v, want 0.8", u)
	}
}

func TestReservationInvalidParams(t *testing.T) {
	_, cpu := newCPU()
	if _, err := cpu.NewReservedJob(0, time.Millisecond); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := cpu.NewReservedJob(time.Millisecond, 2*time.Millisecond); err == nil {
		t.Fatal("slice > period accepted")
	}
}

func TestFinishReleasesUtilization(t *testing.T) {
	_, cpu := newCPU()
	j, err := cpu.NewReservedJob(40*time.Millisecond, 32*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	j.Finish()
	j.Finish() // idempotent
	if cpu.ReservedUtilization() != 0 {
		t.Fatalf("utilization after finish = %v", cpu.ReservedUtilization())
	}
	if _, err := cpu.NewReservedJob(40*time.Millisecond, 32*time.Millisecond); err != nil {
		t.Fatalf("capacity not reclaimed: %v", err)
	}
}

func TestReservedPreemptsBestEffort(t *testing.T) {
	// A best-effort hog is mid-quantum when a reserved frame arrives; the
	// reserved task must start immediately — the DSRT guarantee.
	sim, cpu := newCPU()
	hog := cpu.NewBestEffortJob()
	res, err := cpu.NewReservedJob(42*time.Millisecond, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	hog.Submit(30*time.Millisecond, nil, 0)
	var resDone, hogDone simtime.Time
	sim.Schedule(2*time.Millisecond, func() {
		res.Submit(3*time.Millisecond, simtime.Func(func() { resDone = sim.Now() }), 0)
	})
	// Track hog completion via a second task (first has nil callback).
	hog.Submit(time.Millisecond, simtime.Func(func() { hogDone = sim.Now() }), 0)
	sim.Run()
	if resDone != 5*time.Millisecond {
		t.Fatalf("reserved completed at %v, want 5ms (2ms release + 3ms service)", resDone)
	}
	if hogDone == 0 || hogDone < resDone {
		t.Fatalf("hog order broken: %v", hogDone)
	}
}

func TestReservedJobJitterUnderContention(t *testing.T) {
	// The Figure 5d property: a reserved periodic stream keeps near-ideal
	// completion pacing despite many best-effort competitors.
	sim, cpu := newCPU()
	period := 40 * time.Millisecond
	stream, err := cpu.NewReservedJob(period, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		hog := cpu.NewBestEffortJob()
		var spin simtime.Func
		spin = func() { hog.Submit(8*time.Millisecond, spin, 0) }
		hog.Submit(8*time.Millisecond, spin, 0)
	}
	var completions []simtime.Time
	for i := 0; i < 50; i++ {
		release := simtime.Time(i) * period
		sim.ScheduleAt(release, func() {
			stream.Submit(2*time.Millisecond, simtime.Func(func() {
				completions = append(completions, sim.Now())
			}), 0)
		})
	}
	sim.RunUntil(3 * time.Second)
	if len(completions) != 50 {
		t.Fatalf("only %d/50 frames completed", len(completions))
	}
	for i := 1; i < len(completions); i++ {
		gap := completions[i] - completions[i-1]
		if gap < 30*time.Millisecond || gap > 50*time.Millisecond {
			t.Fatalf("reserved inter-completion gap %d = %v, want ~40ms", i, gap)
		}
	}
}

func TestBestEffortJobStarvesUnderContention(t *testing.T) {
	// The Figure 5c property: the same periodic stream WITHOUT a
	// reservation suffers large completion gaps under contention.
	sim, cpu := newCPU()
	period := 40 * time.Millisecond
	stream := cpu.NewBestEffortJob()
	for i := 0; i < 10; i++ {
		hog := cpu.NewBestEffortJob()
		var spin simtime.Func
		spin = func() { hog.Submit(8*time.Millisecond, spin, 0) }
		hog.Submit(8*time.Millisecond, spin, 0)
	}
	var completions []simtime.Time
	for i := 0; i < 50; i++ {
		release := simtime.Time(i) * period
		sim.ScheduleAt(release, func() {
			stream.Submit(2*time.Millisecond, simtime.Func(func() {
				completions = append(completions, sim.Now())
			}), 0)
		})
	}
	sim.RunUntil(5 * time.Second)
	if len(completions) < 40 {
		t.Fatalf("only %d frames completed", len(completions))
	}
	var worst simtime.Time
	for i := 1; i < len(completions); i++ {
		if gap := completions[i] - completions[i-1]; gap > worst {
			worst = gap
		}
	}
	if worst < 60*time.Millisecond {
		t.Fatalf("worst best-effort gap = %v; expected starvation spikes >60ms", worst)
	}
}

func TestEDFOrderAmongReserved(t *testing.T) {
	sim, cpu := newCPU()
	// A running reserved task is non-preemptible, so both later reserved
	// tasks queue up and are dispatched in EDF order when it completes.
	blocker, _ := cpu.NewReservedJob(100*time.Millisecond, 10*time.Millisecond)
	blocker.Submit(5*time.Millisecond, nil, 0)
	longP, _ := cpu.NewReservedJob(100*time.Millisecond, 10*time.Millisecond)
	shortP, _ := cpu.NewReservedJob(20*time.Millisecond, 2*time.Millisecond)
	var order []string
	sim.Schedule(time.Millisecond, func() {
		longP.Submit(time.Millisecond, simtime.Func(func() { order = append(order, "long") }), 0)
	})
	sim.Schedule(2*time.Millisecond, func() {
		shortP.Submit(time.Millisecond, simtime.Func(func() { order = append(order, "short") }), 0)
	})
	sim.Run()
	// short's deadline (2+20=22ms) precedes long's (1+100=101ms).
	if len(order) != 2 || order[0] != "short" {
		t.Fatalf("EDF order = %v, want short first", order)
	}
}

func TestFinishDropsPendingTasks(t *testing.T) {
	sim, cpu := newCPU()
	j := cpu.NewBestEffortJob()
	fired := false
	j.Submit(time.Hour, simtime.Func(func() { fired = true }), 0)
	sim.Schedule(time.Millisecond, j.Finish)
	sim.Run()
	if fired {
		t.Fatal("task callback fired after Finish")
	}
	// CPU must be usable afterwards.
	k := cpu.NewBestEffortJob()
	var done simtime.Time
	k.Submit(time.Millisecond, simtime.Func(func() { done = sim.Now() }), 0)
	sim.Run()
	if done == 0 {
		t.Fatal("CPU stuck after Finish of running job")
	}
}

func TestSubmitAfterFinishIgnored(t *testing.T) {
	sim, cpu := newCPU()
	j := cpu.NewBestEffortJob()
	j.Finish()
	fired := false
	j.Submit(time.Millisecond, simtime.Func(func() { fired = true }), 0)
	sim.Run()
	if fired {
		t.Fatal("submit after finish executed")
	}
}

func TestDispatchOverheadAccounting(t *testing.T) {
	sim, cpu := newCPU()
	cpu.DispatchOverhead = 160 * time.Microsecond // the paper's 0.16 ms
	j := cpu.NewBestEffortJob()
	var done simtime.Time
	j.Submit(5*time.Millisecond, simtime.Func(func() { done = sim.Now() }), 0)
	sim.Run()
	if done != 5*time.Millisecond+160*time.Microsecond {
		t.Fatalf("completion = %v, want service+overhead", done)
	}
	if cpu.Dispatches() != 1 {
		t.Fatalf("dispatches = %d", cpu.Dispatches())
	}
}

func TestZeroServiceTask(t *testing.T) {
	sim, cpu := newCPU()
	j := cpu.NewBestEffortJob()
	var done bool
	j.Submit(0, simtime.Func(func() { done = true }), 0)
	sim.Run()
	if !done {
		t.Fatal("zero-service task never completed")
	}
}

func TestNegativeServicePanics(t *testing.T) {
	_, cpu := newCPU()
	j := cpu.NewBestEffortJob()
	defer func() {
		if recover() == nil {
			t.Fatal("negative service accepted")
		}
	}()
	j.Submit(-time.Millisecond, nil, 0)
}

func TestBusyTimeConservation(t *testing.T) {
	sim, cpu := newCPU()
	a := cpu.NewBestEffortJob()
	b := cpu.NewBestEffortJob()
	total := 0 * time.Millisecond
	for i := 0; i < 5; i++ {
		a.Submit(7*time.Millisecond, nil, 0)
		b.Submit(3*time.Millisecond, nil, 0)
		total += 10 * time.Millisecond
	}
	sim.Run()
	// The CPU never idles with work queued and charges no overhead here,
	// so the last completion lands exactly when the submitted work runs out.
	if sim.Now() != total {
		t.Fatalf("last completion at %v, want %v", sim.Now(), total)
	}
}

// counter is a completion target that allocates nothing to call.
type counter struct{ n int }

func (c *counter) HandleEvent(arg int) { c.n += arg }

// lateSubmit releases a task on its job when its event fires; the event's
// argument is the service time.
type lateSubmit struct {
	j    *Job
	done simtime.Handler
}

func (l *lateSubmit) HandleEvent(service int) { l.j.Submit(simtime.Time(service), l.done, 1) }

func TestSubmitToCompletionAllocatesNothing(t *testing.T) {
	sim, cpu := newCPU()
	res, err := cpu.NewReservedJob(40*time.Millisecond, 4*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	be, other := cpu.NewBestEffortJob(), cpu.NewBestEffortJob()
	done := &counter{}
	late := &lateSubmit{j: res, done: done}
	// One cycle holds every dispatch outcome: be outlasts its quantum and
	// round-robins with other (expiry), a reserved task released at once and
	// another released mid-quantum each preempt be, and all four complete.
	cycle := func() {
		be.Submit(25*time.Millisecond, done, 1)
		other.Submit(12*time.Millisecond, done, 1)
		res.Submit(2*time.Millisecond, done, 1)
		sim.Post(sim.Now()+3*time.Millisecond, late, int(2*time.Millisecond))
		sim.Run()
	}
	cycle() // first use sizes the rings, the run queues and the event heap
	d0 := cpu.Dispatches()
	if a := testing.AllocsPerRun(50, cycle); a != 0 {
		t.Fatalf("steady-state cycle allocated %.1f times, want 0", a)
	}
	if done.n != 4*52 {
		t.Fatalf("%d tasks completed, want %d", done.n, 4*52)
	}
	// 4 completions + 2 preemptions + at least 2 quantum expiries per cycle.
	if per := float64(cpu.Dispatches()-d0) / 51; per < 8 {
		t.Fatalf("%.1f dispatches per cycle: the cycle no longer preempts and expires", per)
	}
}

// A job finished with one task on the CPU and more queued must stay silent
// while the CPU re-arms the same event and the ring slots for its successor.
func TestFinishedJobStaysSilentAfterReuse(t *testing.T) {
	for _, reserved := range []bool{false, true} {
		sim, cpu := newCPU()
		j := cpu.NewBestEffortJob()
		if reserved {
			var err error
			if j, err = cpu.NewReservedJob(40*time.Millisecond, 4*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		stale := &counter{}
		for i := 0; i < 3; i++ {
			j.Submit(5*time.Millisecond, stale, 1)
		}
		sim.RunUntil(2 * time.Millisecond)
		j.Finish()
		j.Finish() // idempotent: must not cancel the successor's dispatch
		before := sim.Executed()
		sim.Run() // nothing may be left to fire
		if sim.Executed() != before || j.Backlog() != 0 {
			t.Fatalf("reserved=%v: after Finish %d events fired, backlog %d", reserved, sim.Executed()-before, j.Backlog())
		}
		k := cpu.NewBestEffortJob()
		fresh := &counter{}
		for i := 0; i < 5; i++ {
			k.Submit(5*time.Millisecond, fresh, 1)
		}
		j.Finish()
		j.Submit(time.Millisecond, stale, 1) // ignored
		sim.Run()
		if stale.n != 0 {
			t.Fatalf("reserved=%v: finished job's callbacks fired %d times", reserved, stale.n)
		}
		// 2 ms of the finished job's task, then the successor's 25 ms.
		if fresh.n != 5 || sim.Now() != 27*time.Millisecond {
			t.Fatalf("reserved=%v: successor completed %d/5, last at %v (want 27ms)", reserved, fresh.n, sim.Now())
		}
	}
}
