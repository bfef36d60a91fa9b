package main

import (
	"fmt"
	"math"
	"strings"

	"quasaq/internal/stats"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: its reps, the end-to-end metrics
// taken from the fastest of them and, when traced, the per-layer metrics.
type runResult struct {
	Workload    string                 `json:"-"`
	Size        int                    `json:"queries_per_rep"`
	Counts      counts                 `json:"counts"`
	Fingerprint string                 `json:"fingerprint"`
	Agreement   float64                `json:"rep_agreement"`
	Reps        []*repResult           `json:"reps"`
	Metrics     map[string]metricValue `json:"metrics"`
	// RepSpread is how far each end-to-end metric moved between the run's
	// two fastest reps, as a share of the fastest: the run's own
	// uncertainty, which -compare holds a difference against.
	RepSpread map[string]float64     `json:"rep_spread"`
	Layers    map[string]metricValue `json:"layers,omitempty"`

	traced *repResult
}

// scaledSize sizes a rep for a run of the given length: a whole number of
// blocks, in proportion to the seconds.
func (w *workload) scaledSize(seconds int) int {
	return max((2*w.blocks*seconds+defaultSeconds)/(2*defaultSeconds), 1) * w.block
}

// fastest returns the indices of the smallest and second-smallest wall
// (second is -1 when there is one rep).
func fastest(walls []float64) (best, second int) {
	best, second = 0, -1
	for i := 1; i < len(walls); i++ {
		switch {
		case walls[i] < walls[best]:
			best, second = i, best
		case second < 0 || walls[i] < walls[second]:
			second = i
		}
	}
	return best, second
}

// endToEndOf computes the seven end-to-end metrics one rep alone would
// report.
func endToEndOf(r *repResult) map[string]float64 {
	q := float64(r.Counts.Attempted)
	return map[string]float64{
		"setup_s":              r.SetupS,
		"queries_per_s":        q / r.WallS,
		"query_p50_us":         r.lat.Percentile(50) / 1e3,
		"allocs_per_query":     float64(r.mallocs) / q,
		"kb_per_query":         float64(r.allocBytes) / 1024 / q,
		"reject_share_plus1":   1 + float64(r.Counts.Refused)/q,
		"qos_miss_share_plus1": 1 + ratio(float64(r.Counts.QoSMiss), float64(r.Counts.Ended)),
	}
}

// summarize checks that the reps did the same work and assembles the run's
// metrics: every timing from the single fastest rep — the least disturbed
// observation of deterministic work, and mutually consistent because they
// come from one pass — and set-up time as the median over the reps.
func summarize(w *workload, reps []*repResult, traced *repResult) (*runResult, error) {
	res := &runResult{Workload: w.name, Size: reps[0].Counts.Attempted, Reps: reps, traced: traced,
		Counts: reps[0].Counts, Fingerprint: fmt.Sprintf("%016x", reps[0].Fingerprint)}
	all := reps
	if traced != nil {
		all = append(append([]*repResult(nil), reps...), traced)
	}
	for i, r := range all {
		if r.Counts != res.Counts || r.Fingerprint != reps[0].Fingerprint {
			return nil, fmt.Errorf("%s: rep %d of %d did different work than rep 0: %+v fingerprint %016x, want %+v fingerprint %s",
				w.name, i, len(all), r.Counts, r.Fingerprint, res.Counts, res.Fingerprint)
		}
	}
	walls := make([]float64, len(reps))
	perRep := make([]map[string]float64, len(reps))
	for i, r := range reps {
		walls[i] = r.WallS
		perRep[i] = endToEndOf(r)
	}
	best, second := fastest(walls)
	if second >= 0 {
		res.Agreement = walls[second]/walls[best] - 1
	}
	res.Metrics = make(map[string]metricValue, len(endToEnd))
	res.RepSpread = make(map[string]float64, len(endToEnd))
	for _, m := range endToEnd {
		v := perRep[best][m.Name]
		if second >= 0 {
			res.RepSpread[m.Name] = math.Abs(perRep[second][m.Name]/v - 1)
		}
		if m.Name == "setup_s" {
			var setups stats.Sample
			for i := range reps {
				setups.Add(perRep[i][m.Name])
			}
			v = setups.Percentile(50)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	if traced != nil {
		lm, err := layerMetrics(reps[best], traced, res.Agreement)
		if err != nil {
			return nil, err
		}
		res.Layers = make(map[string]metricValue, len(perLayer))
		for _, m := range perLayer {
			v, ok := lm[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: layer metric %s missing or not finite", w.name, m.Name)
			}
			res.Layers[m.Name] = metricValue{v, m.Unit}
		}
	}
	return res, nil
}

// layerMetrics derives the per-layer metrics. Counts the system exports
// through its registry come from the fastest measured rep r, which no probe
// touched; span timings, probe allocations and the counters only internal
// handles export come from the traced rep t.
func layerMetrics(r, t *repResult, agreement float64) (map[string]float64, error) {
	q := float64(r.Counts.Attempted)
	h := t.handles
	calls, ns := h.tracer.totals()
	us := func(kind int) float64 { return ratio(float64(ns[kind])/1e3, float64(calls[kind])) }
	allocs := func(kind int) float64 { return ratio(float64(h.probes.allocs[kind]), float64(calls[kind])) }
	reg := r.reg
	frames := reg["transport_frames_sent_total"]
	saved := reg["quasaq_guardian_saved_total"]

	ids := make([]int64, len(t.videos))
	for i, v := range t.videos {
		ids[i] = int64(v)
	}
	rangeUs, getUs, poolHits, err := storageProbe(t.catalogue, ids)
	if err != nil {
		return nil, fmt.Errorf("storage probe: %w", err)
	}
	loopUs, loopAllocs := bareLoop(200000)

	return map[string]float64{
		"quasaq.query.busy_s":         float64(r.queryNs) / 1e9,
		"quasaq.query.p99_us":         r.lat.Percentile(99) / 1e3,
		"quasaq.query.max_us":         r.lat.Percentile(100) / 1e3,
		"quasaq.advance.busy_s":       float64(r.advanceNs) / 1e9,
		"quasaq.cancel.busy_s":        float64(r.cancelNs) / 1e9,
		"quasaq.reject_share":         float64(r.Counts.Refused) / q,
		"quasaq.qos_miss_share":       ratio(float64(r.Counts.QoSMiss), float64(r.Counts.Ended)),
		"quasaq.rep_agreement":        agreement,
		"quasaq.trace_overhead_share": t.WallS/r.WallS - 1,

		"vdbms.parse.us_per_call":          us(spanParse),
		"vdbms.execute.us_per_call":        us(spanExecute),
		"vdbms.records_examined_per_query": float64(h.recordsExamined) / q,
		"vdbms.index_query_share":          ratio(float64(h.indexQueries), float64(h.engineQueries)),

		"storage.btree_range.us_per_call": rangeUs,
		"storage.heap_get.us_per_call":    getUs,
		"storage.bufferpool.hit_ratio":    poolHits,

		"metadata.lookup.us_per_call":       us(spanLookup),
		"metadata.remote_lookups_per_query": float64(h.remoteLookups) / q,

		"core.plancache.hit_ratio":       ratio(reg["plancache_hits_total"], reg["plancache_hits_total"]+reg["plancache_misses_total"]),
		"core.plancache.invalidations":   reg["plancache_invalidations_total"],
		"core.enumerate.us_per_call":     us(spanEnumerate),
		"core.enumerate.allocs_per_call": allocs(spanEnumerate),
		"core.enumerate.plans_per_call":  ratio(float64(h.probes.plans), float64(calls[spanEnumerate])),
		"core.rank.us_per_call":          us(spanRank),
		"core.rank.allocs_per_call":      allocs(spanRank),
		"core.service.us_per_call":       us(spanService),
		"core.plans_generated_per_query": reg["quasaq_plans_generated_total"] / q,
		"core.plans_tried_per_query":     reg["quasaq_plans_tried_total"] / q,
		"core.admq.expired_share":        (reg["quasaq_admq_expired_total"] + reg["quasaq_admq_dropped_total"]) / q,
		"core.failovers":                 reg["quasaq_failovers_total"],

		"broker.reserve.us_per_call":     us(spanBrokerReserve),
		"broker.reserve.allocs_per_call": allocs(spanBrokerReserve),
		"broker.ctrl_msgs_per_query":     reg["quasaq_ctrl_msgs_total"] / q,
		"broker.rollbacks_per_query":     reg["quasaq_ctrl_rollbacks_total"] / q,
		"broker.ctrl_timeouts":           reg["quasaq_ctrl_timeouts_total"],

		"gara.reserve_release.us_per_call":     us(spanGaraReserve),
		"gara.reserve_release.allocs_per_call": allocs(spanGaraReserve),
		"gara.leases_per_query":                reg["gara_leases_granted_total"] / q,

		"simtime.events_per_query":               float64(h.events) / q,
		"simtime.us_per_event":                   ratio(float64(t.advanceNs)/1e3, float64(h.events)),
		"simtime.schedule_fire.us_per_event":     loopUs,
		"simtime.schedule_fire.allocs_per_event": loopAllocs,
		"simtime.sim_s_per_wall_s":               r.simS / r.WallS,

		"transport.frames_per_query":    frames / q,
		"transport.us_per_frame":        ratio(float64(r.advanceNs)/1e3, frames),
		"transport.bytes_sent_mb":       reg["transport_bytes_sent_total"] / 1e6,
		"transport.frames_shed_share":   ratio(reg["transport_frames_shed_total"], frames+reg["transport_frames_shed_total"]),
		"cpusched.dispatches_per_frame": ratio(reg["cpusched_dispatches_total"], frames),
		"netsim.peak_reserved_share":    r.peakShare,

		"guardian.windows_per_session":    ratio(reg["quasaq_guardian_windows_total"], reg["quasaq_guardian_watched_total"]),
		"guardian.violations":             reg["quasaq_guardian_violations_total"],
		"guardian.saved_share":            ratio(saved, reg["quasaq_guardian_violated_sessions_total"]),
		"edgecache.hit_ratio":             ratio(reg["quasaq_edge_hits_total"], reg["quasaq_edge_hits_total"]+reg["quasaq_edge_misses_total"]),
		"edgecache.split_admission_share": ratio(reg["quasaq_split_admissions_total"], reg["quasaq_admitted_total"]),
		"transcode.jobs_per_query":        reg["quasaq_transcode_jobs_total"] / q,
		"transcode.deadline_miss_share":   ratio(reg["quasaq_transcode_deadline_miss_total"], reg["quasaq_transcode_jobs_completed_total"]),
	}, nil
}

// runWorkloads runs reps of each workload round-robin, so a slow phase of
// the host lands on every workload instead of one, then the traced reps.
func runWorkloads(ws []*workload, seed int64, seconds, reps int, trace bool) ([]*runResult, error) {
	all := make([][]*repResult, len(ws))
	for rep := 0; rep < reps; rep++ {
		for i, w := range ws {
			r, err := runRep(w, seed, w.scaledSize(seconds), nil)
			if err != nil {
				return nil, fmt.Errorf("%s rep %d: %w", w.name, rep, err)
			}
			all[i] = append(all[i], r)
		}
	}
	out := make([]*runResult, len(ws))
	for i, w := range ws {
		var traced *repResult
		if trace {
			n := w.scaledSize(seconds)
			var err error
			// Room for the query, advance, cancel, parse, execute and
			// service spans of every query plus the sampled probes.
			if traced, err = runRep(w, seed, n, newTracer(8*n)); err != nil {
				return nil, fmt.Errorf("%s traced rep: %w", w.name, err)
			}
		}
		var err error
		if out[i], err = summarize(w, all[i], traced); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *runResult) print(b *strings.Builder) {
	fmt.Fprintf(b, "%s: %d queries/rep, %d reps, fingerprint %s\n", r.Workload, r.Size, len(r.Reps), r.Fingerprint)
	for _, m := range endToEnd {
		fmt.Fprintf(b, "  %-22s %14.4f %-8s (rep spread %.4f)\n", m.Name, r.Metrics[m.Name].Value, m.Unit, r.RepSpread[m.Name])
	}
	fmt.Fprintf(b, "  %-22s %14d\n  %-22s %14d\n", "ops_attempted", r.Counts.Attempted, "ops_failed", r.Counts.Failed)
	for i, rep := range r.Reps {
		fmt.Fprintf(b, "  rep %d: setup %.3f s, wall %.3f s (query %.3f, advance %.3f, cancel %.3f)\n", i, rep.SetupS, rep.WallS,
			float64(rep.queryNs)/1e9, float64(rep.advanceNs)/1e9, float64(rep.cancelNs)/1e9)
	}
	fmt.Fprintf(b, "  %-22s %14.4f\n", "rep_agreement", r.Agreement)
	if r.Agreement > agreementWarn {
		fmt.Fprintf(b, "  warning: the two fastest reps differ by %.1f%%; the host was busy\n", 100*r.Agreement)
	}
	for _, m := range perLayer {
		if v, ok := r.Layers[m.Name]; ok {
			fmt.Fprintf(b, "    %-40s %14.4f %s\n", m.Name, v.Value, m.Unit)
		}
	}
}
