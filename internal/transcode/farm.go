// The elastic transcoding farm: a shared tier of heterogeneous worker
// classes executing GOP-granular transcode jobs under deadline-aware (EDF)
// queueing, with an autoscaler trading dollar cost against deadline-miss
// rate. The worker-class / deadline / autoscaler design follows the
// heterogeneous cloud-transcoding architecture of arXiv:1711.01008; QuaSAQ
// plans bind their transcode stage to the farm instead of folding the CPU
// into the delivery site's atomic reservation.
//
// Everything runs on the deterministic sim clock: dispatch prefers the
// fastest free worker (ties broken by class order, then worker index), the
// pending queue is kept in (deadline, submission) order, and the autoscaler
// ticks only while the farm has work — so a drained simulator stays
// drained, and byte-identical runs stay byte-identical for any host worker
// count.
package transcode

import (
	"fmt"
	"math"

	"quasaq/internal/obs"
	"quasaq/internal/simtime"
)

// WorkerClass describes one homogeneous pool of transcoding workers — e.g.
// a fast/expensive tier with short boot times versus a slow/cheap tier that
// takes a while to warm up.
type WorkerClass struct {
	Name string
	// Speed is the worker's throughput in CPU-seconds of transcode work per
	// wall-clock second (1.0 = the reference core the plan coster prices
	// against). Speed 0 means "instant": jobs complete synchronously at
	// submission — the neutral class golden-equivalence tests rely on.
	Speed float64
	// Startup is the boot latency of a newly launched worker; it is paid by
	// autoscaled workers before their first job (the initial MinWorkers
	// fleet starts warm).
	Startup simtime.Time
	// DollarsPerHour meters the class's cost while workers exist (booting
	// workers bill from launch, like real cloud instances).
	DollarsPerHour float64
	// MinWorkers are pre-booted at farm start and never scaled away;
	// MaxWorkers caps the autoscaler (and sizes the farm's reservable CPU).
	MinWorkers, MaxWorkers int
}

// instant reports whether the class completes jobs synchronously.
func (c WorkerClass) instant() bool { return c.Speed == 0 }

// effSpeed orders classes fastest-first; instant classes sort above any
// finite speed.
func (c WorkerClass) effSpeed() float64 {
	if c.instant() {
		return math.Inf(1)
	}
	return c.Speed
}

// AutoscaleConfig tunes the farm's scaling loop. The zero value disables
// autoscaling (the fleet stays at its initial MinWorkers).
type AutoscaleConfig struct {
	// Interval is the decision period; 0 disables the loop entirely.
	Interval simtime.Time
	// QueueHigh scales up when pending jobs exceed QueueHigh per live
	// worker (default 2). QueueLow scales idle workers down when pending
	// jobs drop below QueueLow per live worker (default 1, i.e. an empty
	// queue).
	QueueHigh, QueueLow int
	// Step is the number of workers added or removed per decision
	// (default 1).
	Step int
}

// FarmConfig configures a Farm. The zero value normalizes to a single
// "instant" class — infinite capacity, zero startup latency, flat (zero)
// pricing — which executes the staged pipeline with byte-identical timing
// and accounting to the pre-farm inline path.
type FarmConfig struct {
	Classes   []WorkerClass
	Autoscale AutoscaleConfig
}

// normalize fills defaults and validates; it returns the effective config.
func (cfg FarmConfig) normalize() (FarmConfig, error) {
	if len(cfg.Classes) == 0 {
		cfg.Classes = []WorkerClass{{Name: "instant", MinWorkers: 1, MaxWorkers: 1}}
	}
	seen := map[string]bool{}
	for i := range cfg.Classes {
		c := &cfg.Classes[i]
		if c.Name == "" {
			c.Name = fmt.Sprintf("class%d", i)
		}
		if seen[c.Name] {
			return cfg, fmt.Errorf("transcode: duplicate worker class %q", c.Name)
		}
		seen[c.Name] = true
		if c.Speed < 0 || math.IsNaN(c.Speed) {
			return cfg, fmt.Errorf("transcode: class %q: negative speed %v", c.Name, c.Speed)
		}
		if c.Startup < 0 {
			return cfg, fmt.Errorf("transcode: class %q: negative startup %v", c.Name, c.Startup)
		}
		if c.DollarsPerHour < 0 || math.IsNaN(c.DollarsPerHour) {
			return cfg, fmt.Errorf("transcode: class %q: negative price %v", c.Name, c.DollarsPerHour)
		}
		if c.MaxWorkers <= 0 {
			c.MaxWorkers = c.MinWorkers
		}
		if c.MaxWorkers <= 0 {
			c.MaxWorkers = 1
		}
		if c.MinWorkers < 0 || c.MinWorkers > c.MaxWorkers {
			return cfg, fmt.Errorf("transcode: class %q: min %d / max %d workers",
				c.Name, c.MinWorkers, c.MaxWorkers)
		}
	}
	as := &cfg.Autoscale
	if as.Interval < 0 {
		return cfg, fmt.Errorf("transcode: negative autoscale interval %v", as.Interval)
	}
	if as.QueueHigh <= 0 {
		as.QueueHigh = 2
	}
	if as.QueueLow <= 0 {
		as.QueueLow = 1
	}
	if as.Step <= 0 {
		as.Step = 1
	}
	return cfg, nil
}

// Neutral reports whether the config is timing- and accounting-neutral:
// every class instant, boots free, nothing billed. A neutral farm executes
// staged GOPs with zero effect on frame timing or admission — the
// golden-equivalence baseline.
func (cfg FarmConfig) Neutral() bool {
	for _, c := range cfg.Classes {
		if !c.instant() || c.Startup != 0 || c.DollarsPerHour != 0 {
			return false
		}
	}
	return true
}

// farmJob is one queued GOP transcode: work CPU-seconds due by deadline.
type farmJob struct {
	seq      uint64
	work     float64
	deadline simtime.Time
	done     func(at simtime.Time)
}

// farmWorker is one worker instance.
type farmWorker struct {
	busy    bool
	readyAt simtime.Time // boot completes here; dispatchable once reached
}

// classState is a WorkerClass plus its live fleet and metrics handles.
type classState struct {
	cfg     WorkerClass
	workers []*farmWorker
	busyN   int
	busySec float64 // accumulated busy worker-seconds

	mWorkers *obs.Gauge
	mUtil    *obs.FloatGauge
}

// Farm is the shared elastic transcoding tier.
type Farm struct {
	sim     *simtime.Simulator
	cfg     FarmConfig
	classes []*classState

	queue []*farmJob // pending, (deadline, seq) order
	seq   uint64

	dollars    float64
	lastAccrue simtime.Time
	ticking    bool
	missesTick uint64 // deadline misses seen at the last autoscale tick

	submitted uint64
	completed uint64
	misses    uint64
	maxQueue  int
	scaleUps  uint64
	scaleDown uint64

	mQueue   *obs.Gauge
	mJobs    *obs.Counter
	mDone    *obs.Counter
	mMiss    *obs.Counter
	mUp      *obs.Counter
	mDown    *obs.Counter
	mDollars *obs.FloatGauge
}

// NewFarm builds a farm on the sim clock, registering its metrics
// (quasaq_transcode_*) on reg (nil disables instrumentation). The initial
// fleet is every class's MinWorkers, pre-booted warm.
func NewFarm(sim *simtime.Simulator, cfg FarmConfig, reg *obs.Registry) (*Farm, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	f := &Farm{
		sim:        sim,
		cfg:        cfg,
		lastAccrue: sim.Now(),
		mQueue:     reg.Gauge("quasaq_transcode_queue_depth"),
		mJobs:      reg.Counter("quasaq_transcode_jobs_total"),
		mDone:      reg.Counter("quasaq_transcode_jobs_completed_total"),
		mMiss:      reg.Counter("quasaq_transcode_deadline_miss_total"),
		mUp:        reg.Counter("quasaq_transcode_scale_up_total"),
		mDown:      reg.Counter("quasaq_transcode_scale_down_total"),
		mDollars:   reg.FloatGauge("quasaq_transcode_dollars"),
	}
	for i := range cfg.Classes {
		cs := &classState{
			cfg:      cfg.Classes[i],
			mWorkers: reg.Gauge("quasaq_transcode_workers", "class", cfg.Classes[i].Name),
			mUtil:    reg.FloatGauge("quasaq_transcode_worker_util", "class", cfg.Classes[i].Name),
		}
		for w := 0; w < cs.cfg.MinWorkers; w++ {
			cs.workers = append(cs.workers, &farmWorker{})
		}
		cs.mWorkers.Set(int64(len(cs.workers)))
		f.classes = append(f.classes, cs)
	}
	return f, nil
}

// Neutral reports whether the farm is timing- and accounting-neutral.
func (f *Farm) Neutral() bool { return f.cfg.Neutral() }

// CPUCapacity is the farm's peak real-time transcode throughput in
// CPU-seconds per second — the CPU axis of the farm site's reservable
// capacity: sum over classes of MaxWorkers x Speed. Instant classes
// contribute an effectively unbounded share.
func (f *Farm) CPUCapacity() float64 {
	var total float64
	for _, cs := range f.classes {
		if cs.cfg.instant() {
			return 1e12
		}
		total += float64(cs.cfg.MaxWorkers) * cs.cfg.Speed
	}
	return total
}

// Submit enqueues one GOP transcode job: work CPU-seconds of transcode due
// by deadline. done fires exactly once with the completion time — for an
// instant worker, synchronously inside Submit, with zero simulator events
// scheduled (the neutral farm perturbs nothing). Non-positive or NaN work
// is clamped to zero.
func (f *Farm) Submit(work float64, deadline simtime.Time, done func(at simtime.Time)) {
	if !(work > 0) {
		work = 0
	}
	f.seq++
	f.submitted++
	f.mJobs.Inc()
	job := &farmJob{seq: f.seq, work: work, deadline: deadline, done: done}
	// Insert in (deadline, seq) order: earliest deadline first, FIFO within
	// a deadline.
	i := len(f.queue)
	for i > 0 {
		prev := f.queue[i-1]
		if prev.deadline < job.deadline || (prev.deadline == job.deadline && prev.seq < job.seq) {
			break
		}
		i--
	}
	f.queue = append(f.queue, nil)
	copy(f.queue[i+1:], f.queue[i:])
	f.queue[i] = job
	if len(f.queue) > f.maxQueue {
		f.maxQueue = len(f.queue)
	}
	f.mQueue.Set(int64(len(f.queue)))
	f.ensureTicking()
	f.dispatch()
}

// dispatch pairs pending jobs with free booted workers, fastest class
// first. Deterministic: class order then worker index break speed ties.
func (f *Farm) dispatch() {
	now := f.sim.Now()
	for len(f.queue) > 0 {
		cs, w := f.freeWorker(now)
		if w == nil {
			return
		}
		job := f.queue[0]
		copy(f.queue, f.queue[1:])
		f.queue = f.queue[:len(f.queue)-1]
		f.mQueue.Set(int64(len(f.queue)))
		f.run(cs, w, job)
	}
}

// freeWorker returns the fastest idle, booted worker (nil if none).
func (f *Farm) freeWorker(now simtime.Time) (*classState, *farmWorker) {
	var bestC *classState
	var bestW *farmWorker
	for _, cs := range f.classes {
		if bestC != nil && cs.cfg.effSpeed() <= bestC.cfg.effSpeed() {
			continue // strict improvement only: earlier classes win ties
		}
		for _, w := range cs.workers {
			if !w.busy && w.readyAt <= now {
				bestC, bestW = cs, w
				break
			}
		}
	}
	return bestC, bestW
}

// run executes job on w. Instant workers complete synchronously with no
// events; finite-speed workers occupy the worker for work/Speed seconds.
func (f *Farm) run(cs *classState, w *farmWorker, job *farmJob) {
	now := f.sim.Now()
	if cs.cfg.instant() || job.work == 0 {
		f.complete(cs, job, now)
		return
	}
	w.busy = true
	cs.busyN++
	cs.mUtil.Set(cs.util())
	service := simtime.Time(float64(simtime.Seconds(1)) * job.work / cs.cfg.Speed)
	f.sim.ScheduleAt(now+service, func() {
		w.busy = false
		cs.busyN--
		cs.busySec += simtime.ToSeconds(service)
		cs.mUtil.Set(cs.util())
		f.complete(cs, job, f.sim.Now())
		f.dispatch()
	})
}

// complete finishes a job's bookkeeping and fires its callback.
func (f *Farm) complete(cs *classState, job *farmJob, at simtime.Time) {
	f.completed++
	f.mDone.Inc()
	if at > job.deadline {
		f.misses++
		f.mMiss.Inc()
	}
	job.done(at)
}

// util is the class's instantaneous busy fraction.
func (cs *classState) util() float64 {
	if len(cs.workers) == 0 {
		return 0
	}
	return float64(cs.busyN) / float64(len(cs.workers))
}

// ensureTicking arms the autoscale loop. The ticker stops itself when the
// farm drains so an idle simulator's event queue empties; the next Submit
// re-arms it.
func (f *Farm) ensureTicking() {
	if f.ticking || f.cfg.Autoscale.Interval <= 0 {
		return
	}
	f.ticking = true
	f.sim.Every(f.cfg.Autoscale.Interval, func() bool {
		f.autoscale()
		if f.idle() {
			f.ticking = false
			return false
		}
		return true
	})
}

// idle reports no pending, booting, or running work.
func (f *Farm) idle() bool {
	if len(f.queue) > 0 {
		return false
	}
	now := f.sim.Now()
	for _, cs := range f.classes {
		if cs.busyN > 0 {
			return false
		}
		for _, w := range cs.workers {
			if w.readyAt > now {
				return false
			}
		}
	}
	return true
}

// autoscale is one scaling decision: grow when the backlog per live worker
// crosses QueueHigh (prefer the fastest class if the last interval missed
// deadlines, the cheapest per unit speed otherwise), shrink idle workers
// above MinWorkers when the backlog per live worker is below QueueLow
// (most expensive class first).
func (f *Farm) autoscale() {
	f.accrue()
	as := f.cfg.Autoscale
	pending := len(f.queue)
	live := 0
	for _, cs := range f.classes {
		live += len(cs.workers)
	}
	missed := f.misses > f.missesTick
	f.missesTick = f.misses
	switch {
	case pending > as.QueueHigh*live:
		for i := 0; i < as.Step; i++ {
			cs := f.scaleUpClass(missed)
			if cs == nil {
				break
			}
			f.addWorker(cs)
		}
	case pending < as.QueueLow*live || pending == 0:
		for i := 0; i < as.Step; i++ {
			if !f.removeIdleWorker() {
				break
			}
		}
	}
}

// scaleUpClass picks the class to grow: fastest when deadlines were just
// missed, cheapest per unit of speed otherwise. Classes at MaxWorkers are
// skipped; nil when every class is maxed.
func (f *Farm) scaleUpClass(missed bool) *classState {
	var best *classState
	for _, cs := range f.classes {
		if len(cs.workers) >= cs.cfg.MaxWorkers {
			continue
		}
		if best == nil {
			best = cs
			continue
		}
		if missed {
			if cs.cfg.effSpeed() > best.cfg.effSpeed() {
				best = cs
			}
			continue
		}
		if cs.costRate() < best.costRate() {
			best = cs
		}
	}
	return best
}

// costRate is dollars per hour per unit speed — the scale-up economy
// metric.
func (cs *classState) costRate() float64 {
	return cs.cfg.DollarsPerHour / cs.cfg.effSpeed()
}

// addWorker launches one worker; it becomes dispatchable after its class's
// startup latency (billed from launch).
func (f *Farm) addWorker(cs *classState) {
	f.accrue()
	w := &farmWorker{readyAt: f.sim.Now() + cs.cfg.Startup}
	cs.workers = append(cs.workers, w)
	cs.mWorkers.Set(int64(len(cs.workers)))
	cs.mUtil.Set(cs.util())
	f.scaleUps++
	f.mUp.Inc()
	if cs.cfg.Startup > 0 {
		f.sim.ScheduleAt(w.readyAt, f.dispatch)
	} else {
		f.dispatch()
	}
}

// removeIdleWorker retires one idle, booted worker from the most expensive
// class holding more than MinWorkers. Reports whether one was removed.
func (f *Farm) removeIdleWorker() bool {
	var best *classState
	for _, cs := range f.classes {
		if len(cs.workers) <= cs.cfg.MinWorkers {
			continue
		}
		idle := false
		now := f.sim.Now()
		for _, w := range cs.workers {
			if !w.busy && w.readyAt <= now {
				idle = true
				break
			}
		}
		if !idle {
			continue
		}
		if best == nil || cs.cfg.DollarsPerHour > best.cfg.DollarsPerHour {
			best = cs
		}
	}
	if best == nil {
		return false
	}
	f.accrue()
	now := f.sim.Now()
	for i, w := range best.workers {
		if !w.busy && w.readyAt <= now {
			best.workers = append(best.workers[:i], best.workers[i+1:]...)
			break
		}
	}
	best.mWorkers.Set(int64(len(best.workers)))
	best.mUtil.Set(best.util())
	f.scaleDown++
	f.mDown.Inc()
	return true
}

// accrue meters dollar cost for the elapsed interval at the current fleet
// size. Called before every fleet change and from Stats, so the meter is
// exact at every read point.
func (f *Farm) accrue() {
	now := f.sim.Now()
	hours := simtime.ToSeconds(now-f.lastAccrue) / 3600
	f.lastAccrue = now
	if hours <= 0 {
		return
	}
	for _, cs := range f.classes {
		f.dollars += float64(len(cs.workers)) * cs.cfg.DollarsPerHour * hours
	}
	f.mDollars.Set(f.dollars)
}

// ClassStats is one worker class's snapshot.
type ClassStats struct {
	Name        string
	Workers     int
	BusySeconds float64
}

// FarmStats is the farm's cumulative snapshot.
type FarmStats struct {
	Jobs          uint64
	Completed     uint64
	DeadlineMiss  uint64
	QueueDepth    int
	MaxQueueDepth int
	ScaleUps      uint64
	ScaleDowns    uint64
	Dollars       float64
	PerClass      []ClassStats
}

// MissRate is deadline misses over completed jobs (0 when nothing ran).
func (s FarmStats) MissRate() float64 {
	if s.Completed == 0 {
		return 0
	}
	return float64(s.DeadlineMiss) / float64(s.Completed)
}

// Stats snapshots the farm, accruing dollars up to the current sim time.
func (f *Farm) Stats() FarmStats {
	f.accrue()
	s := FarmStats{
		Jobs:          f.submitted,
		Completed:     f.completed,
		DeadlineMiss:  f.misses,
		QueueDepth:    len(f.queue),
		MaxQueueDepth: f.maxQueue,
		ScaleUps:      f.scaleUps,
		ScaleDowns:    f.scaleDown,
		Dollars:       f.dollars,
	}
	for _, cs := range f.classes {
		s.PerClass = append(s.PerClass, ClassStats{
			Name:        cs.cfg.Name,
			Workers:     len(cs.workers),
			BusySeconds: cs.busySec,
		})
	}
	return s
}
