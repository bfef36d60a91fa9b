package main

// metricSpec names one reported metric. BENCHMARK.json at the repo root
// repeats these tables for the driver; bench_test.go checks the two agree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// The seven end-to-end metrics, the same on every workload. The two shares
// are reported plus one: the driver's bounds are relative to the baseline
// median and a median of zero (no rejects on admit-churn, no QoS misses
// almost everywhere) has no relative bound. Subtract one to read them.
//
// The bounds follow the spreads README.md reports. The two timings and
// set-up move with the host: ten runs of identical code and seed spread them
// by 11 to 27%, so their bounds are the 0.25 the driver's contract caps a
// bound at, not the 0.10 ISSUE 12 asked for, and even that the host can trip
// on its own. The four counts do not depend on the host and spread by at most
// 1.7% across seeds; they are the sharp instrument.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"allocs_per_query", "count", "lower", 0.02},
	{"kb_per_query", "KB", "lower", 0.03},
	{"reject_share_plus1", "fraction", "lower", 0.015},
	{"qos_miss_share_plus1", "fraction", "lower", 0.015},
}

// The per-layer metrics, module name first. They carry no bound: they say
// where an end-to-end change came from.
var perLayer = []metricSpec{
	// quasaq: the driver's own view of the facade.
	{Name: "quasaq.query.busy_s", Unit: "s", Better: "lower"},
	{Name: "quasaq.query.p99_us", Unit: "us", Better: "lower"},
	{Name: "quasaq.query.max_us", Unit: "us", Better: "lower"},
	{Name: "quasaq.advance.busy_s", Unit: "s", Better: "lower"},
	{Name: "quasaq.cancel.busy_s", Unit: "s", Better: "lower"},
	{Name: "quasaq.reject_share", Unit: "fraction", Better: "lower"},
	{Name: "quasaq.qos_miss_share", Unit: "fraction", Better: "lower"},
	{Name: "quasaq.rep_agreement", Unit: "fraction", Better: "lower"},
	{Name: "quasaq.trace_overhead_share", Unit: "fraction", Better: "lower"},
	// vdbms: the content phase.
	{Name: "vdbms.parse.us_per_call", Unit: "us", Better: "lower"},
	{Name: "vdbms.execute.us_per_call", Unit: "us", Better: "lower"},
	{Name: "vdbms.records_examined_per_query", Unit: "count", Better: "lower"},
	{Name: "vdbms.index_query_share", Unit: "fraction", Better: "higher"},
	// storage: probe tree and heap of catalogue size over a 256-page pool.
	{Name: "storage.btree_range.us_per_call", Unit: "us", Better: "lower"},
	{Name: "storage.heap_get.us_per_call", Unit: "us", Better: "lower"},
	{Name: "storage.bufferpool.hit_ratio", Unit: "fraction", Better: "higher"},
	// metadata: the federated replica directory.
	{Name: "metadata.lookup.us_per_call", Unit: "us", Better: "lower"},
	{Name: "metadata.remote_lookups_per_query", Unit: "count", Better: "lower"},
	// core: plan cache, enumeration, ranking, admission.
	{Name: "core.plancache.hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "core.plancache.invalidations", Unit: "count", Better: "lower"},
	{Name: "core.enumerate.us_per_call", Unit: "us", Better: "lower"},
	{Name: "core.enumerate.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "core.enumerate.plans_per_call", Unit: "count", Better: "lower"},
	{Name: "core.rank.us_per_call", Unit: "us", Better: "lower"},
	{Name: "core.rank.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "core.service.us_per_call", Unit: "us", Better: "lower"},
	{Name: "core.plans_generated_per_query", Unit: "count", Better: "lower"},
	{Name: "core.plans_tried_per_query", Unit: "count", Better: "lower"},
	{Name: "core.admq.expired_share", Unit: "fraction", Better: "lower"},
	{Name: "core.failovers", Unit: "count", Better: "lower"},
	// broker: the two-phase reservation coordinator and its control net.
	{Name: "broker.reserve.us_per_call", Unit: "us", Better: "lower"},
	{Name: "broker.reserve.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "broker.ctrl_msgs_per_query", Unit: "count", Better: "lower"},
	{Name: "broker.rollbacks_per_query", Unit: "count", Better: "lower"},
	{Name: "broker.ctrl_timeouts", Unit: "count", Better: "lower"},
	// gara: node booking.
	{Name: "gara.reserve_release.us_per_call", Unit: "us", Better: "lower"},
	{Name: "gara.reserve_release.allocs_per_call", Unit: "count", Better: "lower"},
	{Name: "gara.leases_per_query", Unit: "count", Better: "lower"},
	// simtime: the event loop under everything.
	{Name: "simtime.events_per_query", Unit: "count", Better: "lower"},
	{Name: "simtime.us_per_event", Unit: "us", Better: "lower"},
	{Name: "simtime.schedule_fire.us_per_event", Unit: "us", Better: "lower"},
	{Name: "simtime.schedule_fire.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "simtime.sim_s_per_wall_s", Unit: "ratio", Better: "higher"},
	// transport, cpusched, netsim: streaming.
	{Name: "transport.frames_per_query", Unit: "count", Better: "lower"},
	{Name: "transport.us_per_frame", Unit: "us", Better: "lower"},
	{Name: "transport.bytes_sent_mb", Unit: "MB", Better: "higher"},
	{Name: "transport.frames_shed_share", Unit: "fraction", Better: "lower"},
	{Name: "cpusched.dispatches_per_frame", Unit: "count", Better: "lower"},
	{Name: "netsim.peak_reserved_share", Unit: "fraction", Better: "higher"},
	// guardian, edgecache, transcode: zero unless the tier is on.
	{Name: "guardian.windows_per_session", Unit: "count", Better: "lower"},
	{Name: "guardian.violations", Unit: "count", Better: "lower"},
	{Name: "guardian.saved_share", Unit: "fraction", Better: "higher"},
	{Name: "edgecache.hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "edgecache.split_admission_share", Unit: "fraction", Better: "higher"},
	{Name: "transcode.jobs_per_query", Unit: "count", Better: "lower"},
	{Name: "transcode.deadline_miss_share", Unit: "fraction", Better: "lower"},
}

// Protocol constants (README "Protocol").
const (
	defaultReps    = 7  // reps per run; timings come from the fastest
	tracedReps     = 3  // untraced reps before the traced one with -trace
	defaultSeconds = 14 // run length the workload sizes are calibrated for
	defaultSeed    = 11 // seed 29 is held out for claims
	agreementWarn  = 0.05
)
