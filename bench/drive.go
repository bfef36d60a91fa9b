package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"quasaq"
	"quasaq/internal/stats"
)

// driveMode says how a workload's queries are issued. Host-side the load is
// always a closed loop with one client: the next query is issued when the
// previous call returns.
type driveMode struct {
	// openLoop advances the virtual clock to each query's arrival instant;
	// otherwise the clock moves tick per query (zero: not at all).
	openLoop bool
	tick     time.Duration
	// window is how many admitted sessions stay live: each admit beyond it
	// cancels the oldest. Zero cancels every session at once; negative
	// keeps them all.
	window int
	// async issues DB.Search then DB.DeliverAsync instead of DB.Query.
	async bool
	// drain plays every live stream to its end inside the measured phase.
	drain bool
}

// outcome is how one query concluded.
type outcome struct {
	class byte  // 'A'dmitted, 'R'ejected, 'D'eadline, no 'V'iable plan, 'N'ode down, 'F'ailed; 0 = never concluded
	times uint8 // conclusions seen; must end at exactly one
	d     *quasaq.Delivery
}

// counts are the outcome totals of one rep. They must repeat exactly across
// the reps of a run.
type counts struct {
	Attempted int `json:"attempted"`
	Admitted  int `json:"admitted"`
	Refused   int `json:"refused"`
	Failed    int `json:"failed"`
	// Sessions that ran to an end of their own (completed, failed or
	// abandoned), how many of them missed their QoS, and how many the
	// driver or a guardian re-plan cancelled (neither hit nor miss).
	Ended     int `json:"sessions_ended"`
	QoSMiss   int `json:"qos_miss"`
	Cancelled int `json:"sessions_cancelled"`
}

// player issues queries against one world and records what came back.
type player struct {
	mode driveMode
	sys  system
	tr   *tracer
	qs   []query
	out  []outcome
	lat  []int64 // host ns of each query-submission call

	queryNs, advanceNs, cancelNs int64

	ring []*quasaq.Delivery // the sliding window of live sessions, oldest first
	kept []*quasaq.Delivery // sessions the driver cancels at teardown
	// replans are deliveries first seen in a guardian event: successors the
	// guardian admitted for a session it re-planned.
	replans map[*quasaq.Delivery]bool
}

func newPlayer(mode driveMode, sys system, tr *tracer, qs []query) *player {
	p := &player{mode: mode, sys: sys, tr: tr, qs: qs,
		out: make([]outcome, len(qs)), lat: make([]int64, len(qs))}
	if mode.window > 0 {
		p.ring = make([]*quasaq.Delivery, 0, mode.window+1)
	}
	return p
}

var errNoMatch = errors.New("bench: content phase matched no video")

func (p *player) classify(err error) byte {
	switch {
	case err == nil:
		return 'A'
	case errors.Is(err, quasaq.ErrRejected):
		return 'R'
	case p.mode.async && errors.Is(err, quasaq.ErrAdmissionDeadline):
		return 'D'
	case p.mode.async && errors.Is(err, quasaq.ErrNoViablePlan):
		return 'V'
	case p.mode.async && errors.Is(err, quasaq.ErrNodeDown):
		return 'N'
	default:
		return 'F'
	}
}

func (p *player) conclude(i int, d *quasaq.Delivery, err error) {
	o := &p.out[i]
	o.times++
	o.class = p.classify(err)
	if o.class == 'F' {
		fmt.Fprintf(stderr, "bench: query %d (%s) failed: %v\n", i, p.qs[i].sql, err)
	}
	if d == nil {
		return
	}
	o.d = d
	switch {
	case p.mode.window == 0:
		p.cancel(d)
	case p.mode.window > 0:
		p.ring = append(p.ring, d)
		if len(p.ring) > p.mode.window {
			p.cancel(p.ring[0])
			p.ring = p.ring[:copy(p.ring, p.ring[1:])]
		}
	case !p.mode.drain:
		p.kept = append(p.kept, d)
	}
}

func (p *player) cancel(d *quasaq.Delivery) {
	sp := p.tr.begin(spanCancel)
	t0 := time.Now()
	d.Cancel()
	p.cancelNs += int64(time.Since(t0))
	p.tr.end(sp)
}

func (p *player) advance(d time.Duration) {
	if d <= 0 {
		return
	}
	sp := p.tr.begin(spanAdvance)
	t0 := time.Now()
	p.sys.Advance(d)
	p.advanceNs += int64(time.Since(t0))
	p.tr.end(sp)
}

// play issues every query and then finishes the workload's own tail:
// releasing the window and, where the workload streams, playing every
// session to its end.
func (p *player) play() {
	for i := range p.qs {
		q := &p.qs[i]
		if p.mode.openLoop {
			p.advance(q.at - p.sys.Now())
		} else {
			p.advance(p.mode.tick)
		}
		if p.tr != nil {
			p.tr.query = int32(i)
		}
		sp := p.tr.begin(spanQuery)
		t0 := time.Now()
		if p.mode.async {
			res, err := p.sys.Search(q.sql)
			if err == nil && len(res) == 0 {
				err = errNoMatch
			}
			if err != nil {
				p.lat[i] = int64(time.Since(t0))
				p.tr.end(sp)
				p.conclude(i, nil, err)
				continue
			}
			i := i
			p.sys.DeliverAsync(q.site, res[0].Video.ID, q.req, func(d *quasaq.Delivery, err error) { p.conclude(i, d, err) })
			p.lat[i] = int64(time.Since(t0))
			p.tr.end(sp)
			continue
		}
		res, err := p.sys.Query(q.site, q.sql)
		p.lat[i] = int64(time.Since(t0))
		p.tr.end(sp)
		var d *quasaq.Delivery
		if res != nil {
			d = res.Delivery
		}
		if err == nil && d == nil {
			err = errNoMatch
		}
		p.conclude(i, d, err)
	}
	for _, d := range p.ring {
		p.cancel(d)
	}
	p.ring = p.ring[:0]
	if p.mode.drain {
		sp := p.tr.begin(spanAdvance)
		t0 := time.Now()
		p.sys.RunUntilIdle()
		p.advanceNs += int64(time.Since(t0))
		p.tr.end(sp)
	}
	for _, l := range p.lat {
		p.queryNs += l
	}
}

// watchGuardian collects the successors of guardian re-plans, which the
// driver never receives from a submission call.
func (p *player) watchGuardian() error {
	p.replans = make(map[*quasaq.Delivery]bool)
	return p.sys.OnGuardianEvent(func(ev quasaq.GuardianEvent) {
		if ev.Delivery != nil {
			p.replans[ev.Delivery] = true
		}
	})
}

// settle cancels what the workload left live, drains the world and runs the
// correctness checks every rep must pass. It returns the outcome totals and
// the outcome fingerprint.
func (p *player) settle(extra []*quasaq.Delivery, tiers bool) (counts, uint64, error) {
	for _, d := range append(p.kept, extra...) {
		d.Cancel()
	}
	p.sys.RunUntilIdle()

	var c counts
	h := fnv.New64a()
	for i := range p.out {
		o := &p.out[i]
		c.Attempted++
		if o.times != 1 {
			return c, 0, fmt.Errorf("query %d concluded %d times", i, o.times)
		}
		switch o.class {
		case 'A':
			c.Admitted++
		case 'F':
			c.Failed++
		default:
			c.Refused++
		}
		h.Write([]byte{o.class})
		if o.d != nil {
			h.Write([]byte(o.d.Plan.String()))
		}
		h.Write([]byte{0})
	}
	if c.Admitted+c.Refused+c.Failed != c.Attempted {
		return c, 0, fmt.Errorf("admitted %d + refused %d + failed %d != attempted %d", c.Admitted, c.Refused, c.Failed, c.Attempted)
	}

	sessions := make([]*quasaq.Delivery, 0, c.Admitted+len(p.replans))
	seen := make(map[*quasaq.Delivery]bool, c.Admitted)
	for i := range p.out {
		if d := p.out[i].d; d != nil && !seen[d] {
			seen[d] = true
			sessions = append(sessions, d)
		}
	}
	for d := range p.replans {
		if !seen[d] {
			sessions = append(sessions, d)
		}
	}
	for _, d := range sessions {
		switch s := d.Session; {
		case d.Failed():
			c.Ended++
			c.QoSMiss++
		case s == nil || !s.Done():
			return c, 0, fmt.Errorf("session of %s never ended", d.Video().Title)
		case s.Cancelled():
			c.Cancelled++
		default:
			c.Ended++
			if s.Failed() || !s.QoSOK() {
				c.QoSMiss++
			}
		}
	}

	if n := p.sys.Stats().Outstanding; n != 0 {
		return c, 0, fmt.Errorf("%d sessions outstanding after the final drain", n)
	}
	sites := append(append([]string(nil), p.sys.Sites()...), p.sys.EdgeSites()...)
	if tiers {
		sites = append(sites, "farm")
	}
	for _, site := range sites {
		u, capacity, err := p.sys.SiteUsage(site)
		if err != nil {
			return c, 0, err
		}
		for i := range u {
			// Releases subtract what reserves added in another order, so
			// an idle bucket reads zero only to within float rounding.
			if math.Abs(u[i]) > 1e-9*capacity[i] {
				return c, 0, fmt.Errorf("site %s still holds %v after the final drain", site, u)
			}
		}
	}
	return c, h.Sum64(), nil
}

// repResult is everything one rep measured.
type repResult struct {
	SetupS      float64 `json:"setup_s"`
	WallS       float64 `json:"wall_s"`
	Counts      counts  `json:"counts"`
	Fingerprint uint64  `json:"-"`

	lat                          stats.Sample // host ns of each query-submission call
	queryNs, advanceNs, cancelNs int64
	mallocs, allocBytes          uint64
	simS                         float64            // virtual seconds the measured phase covered
	reg                          map[string]float64 // registry series summed over labels, measured phase only
	peakShare                    float64            // highest reserved share any site's link reached
	handles                      *handleStats       // traced rep only
	catalogue                    int                // videos ingested
	videos                       []quasaq.VideoID   // the video each query named
}

// handleStats are the counters only the internal handles export, over the
// traced rep's measured phase.
type handleStats struct {
	events          uint64 // Simulator.Executed
	engineQueries   uint64
	indexQueries    uint64
	recordsExamined uint64
	remoteLookups   uint64
	tracer          *tracer
	probes          *probeSet
}

// runRep builds a fresh world, sets the workload up on it, measures one
// pass and checks it. With tr set the world is the traced one.
func runRep(w *workload, seed int64, n int, tr *tracer) (res *repResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	res = &repResult{}
	t0 := time.Now()
	in := w.build(seed, n)
	res.catalogue = len(in.spec.videos)
	res.videos = make([]quasaq.VideoID, len(in.queries))
	for i, q := range in.queries {
		res.videos[i] = q.video
	}
	if w.scratchWarm > 0 {
		// Warm the process on a throwaway world: code paths, heap, pools.
		scratch, err := openPublic(in.spec)
		if err != nil {
			return nil, err
		}
		newPlayer(w.mode, scratch, nil, in.queries[:min(w.scratchWarm, len(in.queries))]).play()
	}
	var sys system
	var tw *tracedWorld
	if tr != nil {
		tw, err = openTraced(in.spec, tr, w.probeEvery)
		sys = tw
	} else {
		sys, err = openPublic(in.spec)
	}
	if err != nil {
		return nil, err
	}
	var fills []*quasaq.Delivery
	if w.prepare != nil {
		if fills, err = w.prepare(sys, in); err != nil {
			return nil, err
		}
	}
	p := newPlayer(w.mode, sys, tr, in.queries)
	if in.spec.tiers {
		if err := p.watchGuardian(); err != nil {
			return nil, err
		}
	}
	before := registrySums(sys)
	var h0 handleStats
	if tw != nil {
		h0 = tw.handleCounters()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sim0 := sys.Now()
	res.SetupS = time.Since(t0).Seconds()

	if tr != nil {
		tr.enabled = true
	}
	t1 := time.Now()
	p.play()
	res.WallS = time.Since(t1).Seconds()
	if tr != nil {
		tr.enabled = false
	}
	runtime.ReadMemStats(&m1)

	res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.simS = (sys.Now() - sim0).Seconds()
	res.queryNs, res.advanceNs, res.cancelNs = p.queryNs, p.advanceNs, p.cancelNs
	for _, l := range p.lat {
		res.lat.Add(float64(l))
	}
	res.reg = registrySums(sys)
	for k, v := range before {
		res.reg[k] -= v
	}
	res.peakShare = peakReservedShare(sys)
	if tw != nil {
		h1 := tw.handleCounters()
		res.handles = &handleStats{
			events:          h1.events - h0.events,
			engineQueries:   h1.engineQueries - h0.engineQueries,
			indexQueries:    h1.indexQueries - h0.indexQueries,
			recordsExamined: h1.recordsExamined - h0.recordsExamined,
			remoteLookups:   h1.remoteLookups - h0.remoteLookups,
			tracer:          tr,
			probes:          tw.probes,
		}
	}
	res.Counts, res.Fingerprint, err = p.settle(fills, in.spec.tiers)
	return res, err
}

func (w *tracedWorld) handleCounters() handleStats {
	es := w.cluster.Engine.Stats()
	remote, _ := w.cluster.Dir.CacheStats()
	return handleStats{
		events:          w.sim.Executed(),
		engineQueries:   es.Queries,
		indexQueries:    es.IndexQueries,
		recordsExamined: es.RecordsExamined,
		remoteLookups:   remote,
	}
}

// registrySums folds the exported registry to one number per series name;
// runRep keeps the measured phase's deltas, which suits its counters.
func registrySums(sys system) map[string]float64 {
	sums := make(map[string]float64)
	for _, m := range sys.MetricsSnapshot() {
		if m.Kind == "histogram" {
			sums[m.Name] += float64(m.Count)
			continue
		}
		sums[m.Name] += m.Value
	}
	return sums
}

func peakReservedShare(sys system) float64 {
	peak, capacity := map[string]float64{}, map[string]float64{}
	for _, m := range sys.MetricsSnapshot() {
		switch m.Name {
		case "netsim_peak_reserved_bytes":
			peak[m.Labels["site"]] = m.Value
		case "netsim_capacity_bytes":
			capacity[m.Labels["site"]] = m.Value
		}
	}
	best := 0.0
	for site, p := range peak {
		if c := capacity[site]; c > 0 && site != "farm" && p/c > best {
			best = p / c
		}
	}
	return best
}
