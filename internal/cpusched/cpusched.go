// Package cpusched models the two CPU schedulers whose contrast drives the
// paper's Figure 5 and Table 2:
//
//   - a time-sharing round-robin scheduler with a 10 ms quantum, standing in
//     for the stock Solaris 2.6 scheduler under which the original VDBMS
//     streamed ("the job waits for its turn of CPU utilization ... it will
//     try to process all the frames that are overdue within the quantum
//     assigned by the OS (10ms in Solaris)", §5.1); and
//   - a DSRT-style soft-real-time reservation scheduler (period + slice
//     admission, earliest-deadline-first dispatch, preemption of best-effort
//     work), standing in for the QualMan CPU scheduler behind QuaSAQ's
//     composite QoS API.
//
// Both run on the same simulated CPU. Streaming jobs submit one task per
// frame; the scheduler decides completion times, and the transport layer
// derives inter-frame delays from them.
package cpusched

import (
	"errors"
	"fmt"
	"time"

	"quasaq/internal/obs"
	"quasaq/internal/simtime"
)

// DefaultQuantum is the Solaris time-sharing quantum the paper cites.
const DefaultQuantum = 10 * time.Millisecond

// DefaultMaxUtilization bounds admitted reserved utilization, leaving
// headroom for best-effort work and scheduler overhead, as DSRT does.
const DefaultMaxUtilization = 0.85

// ErrAdmission reports that a reservation would exceed the utilization
// bound.
var ErrAdmission = errors.New("cpusched: reservation rejected by admission control")

// Task is one unit of CPU work (processing one video frame, one transcode
// step, one query). done.HandleEvent(arg) is invoked exactly once, at the
// completion instant (the simulator's Now), unless the job finishes first.
type Task struct {
	remaining simtime.Time
	released  simtime.Time
	deadline  simtime.Time // released + period for reserved jobs
	done      simtime.Handler
	arg       int
}

// taskRing is a job's FIFO of released tasks, held by value in a power-of-two
// ring that is allocated on the first Submit and grows by doubling, so a
// steady stream of submits and completions allocates nothing.
type taskRing struct {
	buf     []Task
	head, n int
}

func (r *taskRing) push(t Task) {
	if r.n == len(r.buf) {
		buf := make([]Task, max(4, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
}

// front is the next task to run; the pointer is good until the next push.
func (r *taskRing) front() *Task { return &r.buf[r.head] }

func (r *taskRing) pop() Task {
	t := r.buf[r.head]
	r.buf[r.head] = Task{} // drop the handler: a finished session must not stay reachable
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return t
}

// Job is a stream of tasks belonging to one session or process.
type Job struct {
	cpu      *CPU
	reserved bool
	period   simtime.Time
	slice    simtime.Time
	tasks    taskRing // released, not yet completed; head is next to run
	queued   bool     // present in the best-effort run queue
	finished bool
}

// Backlog returns the number of released, uncompleted tasks.
func (j *Job) Backlog() int { return j.tasks.n }

// CPU is a single simulated processor shared by reserved and best-effort
// jobs.
type CPU struct {
	sim     *simtime.Simulator
	quantum simtime.Time
	maxUtil float64

	// DispatchOverhead is charged once per dispatch decision, modelling
	// scheduler bookkeeping (DSRT reports 0.4-0.8 ms per 10 ms on its
	// hardware, 0.16 ms on the paper's machines).
	DispatchOverhead simtime.Time

	reservedJobs []*Job // jobs holding reservations (admission accounting)
	readyRes     []*Job // reserved jobs with released tasks
	readyBE      []*Job // best-effort round-robin queue

	// The one dispatch in progress (cur.job is nil while idle) and the one
	// event that ends it, completion or quantum expiry, re-armed per dispatch.
	cur running
	ev  simtime.Event

	util       float64
	dispatches uint64

	// Registry handles, nil (no-op) until Instrument is called.
	mDispatches *obs.Counter
	mPreempts   *obs.Counter
	mRejects    *obs.Counter
	mUtil       *obs.FloatGauge
}

// Instrument wires the scheduler's accounting onto the metrics registry
// under the given label pairs (conventionally "site", name).
func (c *CPU) Instrument(reg *obs.Registry, labels ...string) {
	c.mDispatches = reg.Counter("cpusched_dispatches_total", labels...)
	c.mPreempts = reg.Counter("cpusched_preemptions_total", labels...)
	c.mRejects = reg.Counter("cpusched_admission_rejects_total", labels...)
	c.mUtil = reg.FloatGauge("cpusched_reserved_utilization", labels...)
}

// running is a dispatch of its job's head task.
type running struct {
	job        *Job
	started    simtime.Time
	quantumEnd simtime.Time // zero for reserved dispatches
}

// cpuDone and cpuExpiry are the CPU seen as the target of its two events.
type (
	cpuDone   CPU
	cpuExpiry CPU
)

func (c *cpuDone) HandleEvent(int)   { (*CPU)(c).onComplete() }
func (c *cpuExpiry) HandleEvent(int) { (*CPU)(c).onExpiry() }

// New creates a CPU on the simulator with the given scheduling quantum.
func New(sim *simtime.Simulator, quantum simtime.Time) *CPU {
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	return &CPU{sim: sim, quantum: quantum, maxUtil: DefaultMaxUtilization}
}

// SetMaxUtilization overrides the reserved-utilization admission bound.
func (c *CPU) SetMaxUtilization(u float64) { c.maxUtil = u }

// ReservedUtilization returns the admitted reserved utilization in [0,1].
func (c *CPU) ReservedUtilization() float64 { return c.util }

// Dispatches returns the number of dispatch decisions taken, for overhead
// accounting.
func (c *CPU) Dispatches() uint64 { return c.dispatches }

// NewBestEffortJob creates a time-shared job.
func (c *CPU) NewBestEffortJob() *Job {
	return &Job{cpu: c}
}

// NewReservedJob creates a job with a (period, slice) CPU reservation,
// subject to admission control: total reserved utilization must stay within
// the bound. This is the CPU leg of the composite QoS API's reservation.
func (c *CPU) NewReservedJob(period, slice simtime.Time) (*Job, error) {
	if period <= 0 || slice <= 0 || slice > period {
		return nil, fmt.Errorf("cpusched: invalid reservation period=%v slice=%v", period, slice)
	}
	u := float64(slice) / float64(period)
	if c.util+u > c.maxUtil+1e-12 {
		c.mRejects.Inc()
		return nil, fmt.Errorf("%w: %.2f+%.2f > %.2f", ErrAdmission, c.util, u, c.maxUtil)
	}
	j := &Job{cpu: c, reserved: true, period: period, slice: slice}
	c.util += u
	c.mUtil.Set(c.util)
	c.reservedJobs = append(c.reservedJobs, j)
	return j, nil
}

// Finish releases the job's reservation (if any) and drops pending tasks.
// Their done callbacks never fire.
func (j *Job) Finish() {
	if j.finished {
		return
	}
	j.finished = true
	c := j.cpu
	if j.reserved {
		c.util -= float64(j.slice) / float64(j.period)
		if c.util < 0 {
			c.util = 0
		}
		c.mUtil.Set(c.util)
		c.reservedJobs = removeJob(c.reservedJobs, j)
		c.readyRes = removeJob(c.readyRes, j)
	} else {
		c.readyBE = removeJob(c.readyBE, j)
		j.queued = false
	}
	wasRunning := c.cur.job == j
	if wasRunning {
		c.stopCurrent(false)
	}
	j.tasks = taskRing{}
	if wasRunning {
		c.dispatch()
	}
}

func removeJob(s []*Job, j *Job) []*Job {
	for i, x := range s {
		if x == j {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Submit releases a task needing the given CPU service time;
// done.HandleEvent(arg) is called at its completion instant (done may be
// nil). Zero-service tasks complete after the dispatch overhead alone.
func (j *Job) Submit(service simtime.Time, done simtime.Handler, arg int) {
	if j.finished {
		return
	}
	if service < 0 {
		panic("cpusched: negative service time")
	}
	c := j.cpu
	t := Task{remaining: service, released: c.sim.Now(), done: done, arg: arg}
	if j.reserved {
		t.deadline = t.released + j.period
	}
	j.tasks.push(t)
	if j.reserved {
		if !containsJob(c.readyRes, j) {
			c.readyRes = append(c.readyRes, j)
		}
	} else if !j.queued && c.cur.job != j {
		// A job that is currently on the CPU keeps its new task in its own
		// queue; enqueuing it again would double-schedule it.
		j.queued = true
		c.readyBE = append(c.readyBE, j)
	}
	c.maybePreempt()
	c.dispatch()
}

func containsJob(s []*Job, j *Job) bool {
	for _, x := range s {
		if x == j {
			return true
		}
	}
	return false
}

// maybePreempt interrupts a best-effort dispatch when reserved work becomes
// ready: the soft-real-time guarantee DSRT provides.
func (c *CPU) maybePreempt() {
	if c.cur.job == nil || c.cur.job.reserved || len(c.readyRes) == 0 {
		return
	}
	c.mPreempts.Inc()
	c.stopCurrent(true)
}

// stopCurrent halts the running dispatch. If requeue is set, the partially
// executed task keeps its consumed service and its job returns to the front
// of the best-effort queue.
func (c *CPU) stopCurrent(requeue bool) {
	r := c.cur
	if r.job == nil {
		return
	}
	c.charge(r)
	c.sim.Cancel(&c.ev)
	c.cur = running{}
	if requeue && !r.job.finished {
		if !r.job.queued {
			r.job.queued = true
			c.readyBE = append(c.readyBE, nil)
			copy(c.readyBE[1:], c.readyBE)
			c.readyBE[0] = r.job
		}
	}
}

// charge books the time the interrupted dispatch r ran as progress past
// the dispatch overhead for its task.
func (c *CPU) charge(r running) {
	consumed := c.sim.Now() - r.started
	t := r.job.tasks.front()
	t.remaining -= max(consumed-c.DispatchOverhead, 0)
	t.remaining = max(t.remaining, 0)
}

// dispatch starts the next task if the CPU is idle.
func (c *CPU) dispatch() {
	if c.cur.job != nil {
		return
	}
	if j := c.pickEDF(); j != nil {
		c.start(j, 0)
		return
	}
	for len(c.readyBE) > 0 {
		j := c.readyBE[0]
		c.readyBE = c.readyBE[:copy(c.readyBE, c.readyBE[1:])] // shift down: keeps the capacity
		j.queued = false
		if j.tasks.n == 0 {
			continue // drained while queued (e.g. by Finish)
		}
		c.start(j, c.sim.Now()+c.quantum)
		return
	}
}

// pickEDF returns the reserved job whose head task has the earliest
// deadline, or nil.
func (c *CPU) pickEDF() *Job {
	var best *Job
	for _, j := range c.readyRes {
		if j.tasks.n == 0 {
			continue
		}
		if best == nil || j.tasks.front().deadline < best.tasks.front().deadline {
			best = j
		}
	}
	return best
}

func (c *CPU) start(j *Job, quantumEnd simtime.Time) {
	c.dispatches++
	c.mDispatches.Inc()
	now := c.sim.Now()
	c.cur = running{job: j, started: now, quantumEnd: quantumEnd}
	end := now + j.tasks.front().remaining + c.DispatchOverhead
	if quantumEnd > 0 && end > quantumEnd {
		// The quantum expires mid-task: schedule expiry, not completion.
		c.sim.Arm(&c.ev, quantumEnd, (*cpuExpiry)(c), 0)
		return
	}
	c.sim.Arm(&c.ev, end, (*cpuDone)(c), 0)
}

func (c *CPU) onComplete() {
	r := c.cur
	now := c.sim.Now()
	j := r.job
	t := j.tasks.pop()
	c.cur = running{}
	if j.reserved && j.tasks.n == 0 {
		c.readyRes = removeJob(c.readyRes, j)
	}
	// Within a live quantum a best-effort job keeps the CPU and burns
	// through its backlog — the paper's "process all the frames that are
	// overdue within the quantum".
	if !j.reserved && !j.finished && j.tasks.n > 0 && now < r.quantumEnd && c.pickEDF() == nil {
		c.start(j, r.quantumEnd)
	} else if !j.reserved && !j.finished && j.tasks.n > 0 {
		if !j.queued {
			j.queued = true
			c.readyBE = append(c.readyBE, j)
		}
	}
	if t.done != nil {
		t.done.HandleEvent(t.arg)
	}
	c.dispatch()
}

func (c *CPU) onExpiry() {
	r := c.cur
	c.charge(r)
	j := r.job
	c.cur = running{}
	if !j.finished {
		// Rotate to the tail: classic round-robin.
		if !j.queued {
			j.queued = true
			c.readyBE = append(c.readyBE, j)
		}
	}
	c.dispatch()
}
