package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"time"

	"quasaq"
	"quasaq/internal/broker"
	"quasaq/internal/core"
	"quasaq/internal/gara"
	"quasaq/internal/simtime"
	"quasaq/internal/storage"
)

// Span names, layer first. The driver opens the quasaq.* spans around its
// calls into the facade; tracedWorld opens the rest beneath them.
const (
	spanQuery = iota
	spanAdvance
	spanCancel
	spanParse
	spanExecute
	spanService
	spanLookup
	spanCacheGet
	spanEnumerate
	spanRank
	spanBrokerReserve
	spanGaraReserve
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"quasaq.query", "quasaq.advance", "quasaq.cancel",
	"vdbms.parse", "vdbms.execute", "core.service",
	"metadata.lookup", "core.plancache.get", "core.enumerate", "core.rank",
	"broker.reserve", "gara.reserve_release",
}

// span is one timed call: its kind, wall start and end (ns since the tracer
// began), the span that caused it (-1 for none) and the query it served.
type span struct {
	kind       uint8
	parent     int32
	query      int32
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// not yet enabled, records nothing, so the measured reps share the driver
// code with the traced one.
type tracer struct {
	enabled bool
	t0      time.Time
	spans   []span
	open    int32 // innermost unfinished span
	query   int32 // query the driver is serving
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), open: -1}
}

func (t *tracer) begin(kind int) int32 {
	if t == nil || !t.enabled {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: uint8(kind), parent: t.open, query: t.query, start: int64(time.Since(t.t0))})
	t.open = id
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.end = int64(time.Since(t.t0))
	t.open = s.parent
}

// totals returns the call count and summed duration of each span kind.
func (t *tracer) totals() (calls [numSpanKinds]int, ns [numSpanKinds]int64) {
	for _, s := range t.spans {
		calls[s.kind]++
		ns[s.kind] += s.end - s.start
	}
	return
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// ui.perfetto.dev or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"query":%d}}`,
			spanNames[s.kind], float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.query)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeSet runs the read-only layer probes on every probeEvery-th query:
// the calls Manager.Service is about to make, made once more from outside
// with the same inputs at the same world state, each inside its own span
// and with the allocations it made counted. Probes leave the reservation
// books as they found them; the traced rep's outcome fingerprint must equal
// the measured reps', which checks that.
type probeSet struct {
	w      *tracedWorld
	co     *broker.Coordinator // the probes' own; its counters go nowhere
	every  int
	seen   int
	allocs [numSpanKinds]uint64 // mallocs inside each probe kind
	plans  int                  // plans returned by enumerate probes
}

func newProbeSet(w *tracedWorld, every int) *probeSet {
	return &probeSet{w: w, co: broker.NewCoordinator(w.cluster.Ctrl, nil), every: every}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// timed runs fn in a span of the given kind.
func (p *probeSet) timed(kind int, fn func()) {
	sp := p.w.tr.begin(kind)
	fn()
	p.w.tr.end(sp)
}

// probe is timed and also charges the kind the mallocs fn made. Reading
// the allocator's counters stops the world, so only the probes whose
// allocations are reported pay for it.
func (p *probeSet) probe(kind int, fn func()) {
	before := mallocs()
	p.timed(kind, fn)
	p.allocs[kind] += mallocs() - before
}

func (p *probeSet) run(site string, id quasaq.VideoID, req quasaq.Requirement) {
	if !p.w.tr.enabled {
		return
	}
	p.seen++
	if p.seen%p.every != 0 {
		return
	}
	w := p.w
	v, err := w.cluster.Engine.Video(id)
	if err != nil {
		return
	}
	p.timed(spanLookup, func() { w.cluster.Dir.Lookup(site, id) })
	p.timed(spanCacheGet, func() { w.mgr.PlanCache().Get(site, id, req) })
	var plans []*core.Plan
	p.probe(spanEnumerate, func() { plans = w.mgr.Generator().GenerateAll(site, v, req) })
	p.plans += len(plans)
	if len(plans) == 0 {
		return
	}
	var best *core.Plan
	p.probe(spanRank, func() { best, _ = core.NewBestFirst(plans, core.LRB{}, w.cluster.SiteUsage()).Next() })
	stages := best.ReservationStages()
	period := simtime.Seconds(1 / best.Delivered.FrameRate)
	// A reservation through the control plane concludes inside the call
	// only on the synchronous net; on tiers-async it would span events.
	if w.cluster.Ctrl.Config().Synchronous() {
		parts := make([]broker.Participant, len(stages))
		for i, st := range stages {
			parts[i] = broker.Participant{Site: st.Site, Name: "probe" + st.Suffix, Vec: st.Vec, Period: period}
		}
		p.probe(spanBrokerReserve, func() {
			p.co.Reserve(site, parts, nil, func(leases []*gara.Lease, _ error) {
				for _, l := range leases {
					l.Release()
				}
			})
		})
	}
	if node, err := w.cluster.Node(stages[0].Site); err == nil {
		p.probe(spanGaraReserve, func() {
			if l, err := node.Reserve("probe", stages[0].Vec, period); err == nil {
				l.Release()
			}
		})
	}
}

// bareLoop times the simulator's schedule/fire cycle on no-op events: the
// event loop's own cost with no layer above it.
func bareLoop(events int) (usPerEvent, allocsPerEvent float64) {
	sim := simtime.NewSimulator()
	fn := func() {}
	before := mallocs()
	t0 := time.Now()
	for i := 0; i < events; i++ {
		sim.Schedule(simtime.Time(i%97)*time.Millisecond, fn)
		if i%64 == 63 {
			sim.RunUntil(sim.Now() + 50*time.Millisecond)
		}
	}
	sim.Run()
	el := time.Since(t0)
	return float64(el.Microseconds()) / float64(events), float64(mallocs()-before) / float64(events)
}

// storageProbe builds a B+tree and a heap file of catalogue size over a
// 256-page pool — the engine's own layout, whose handles it keeps private —
// and reads them with the workload's video ids.
func storageProbe(records int, ids []int64) (rangeUs, getUs, hitRatio float64, err error) {
	vol := storage.NewVolume(9)
	pool := storage.NewBufferPool(vol, 256)
	tree, err := storage.NewBTree(pool, vol)
	if err != nil {
		return 0, 0, 0, err
	}
	heap := storage.NewHeapFile(pool, vol)
	rec := make([]byte, 1100) // a catalogue record with its shots averages about this
	oids := make(map[int64]storage.OID, records)
	for i := 1; i <= records; i++ {
		oid, err := heap.Insert(rec)
		if err != nil {
			return 0, 0, 0, err
		}
		if err := tree.Insert(int64(i), oid); err != nil {
			return 0, 0, 0, err
		}
		oids[int64(i)] = oid
	}
	h0, m0 := pool.Stats()
	t0 := time.Now()
	for _, id := range ids {
		if err := tree.Range(id, id, func(int64, storage.OID) bool { return true }); err != nil {
			return 0, 0, 0, err
		}
	}
	t1 := time.Now()
	for _, id := range ids {
		if _, err := heap.Get(oids[id]); err != nil {
			return 0, 0, 0, err
		}
	}
	t2 := time.Now()
	h1, m1 := pool.Stats()
	n := float64(len(ids))
	return float64(t1.Sub(t0).Nanoseconds()) / 1e3 / n, float64(t2.Sub(t1).Nanoseconds()) / 1e3 / n,
		ratio(float64(h1-h0), float64(h1-h0+m1-m0)), nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
