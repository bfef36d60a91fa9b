package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"quasaq"
	"quasaq/internal/simtime"
	paperload "quasaq/internal/workload"
)

// query is one generated input. The program under test receives only these
// fields: the SQL text, the site it arrives at and, where the workload
// splits the two phases itself, the parsed requirement.
type query struct {
	at   time.Duration // virtual arrival instant (open-loop workloads)
	site string
	sql  string
	req  quasaq.Requirement
	// video is the driver's own note of the video the SQL names, for the
	// storage probe; the program never sees it.
	video quasaq.VideoID
}

var testbedSites = []string{"srv-a", "srv-b", "srv-c"}

// The standard corpus has 15 videos; requests name one of the paper's QoP
// tiers.
const corpusSize = 15

var numTiers = len(paperload.Tiers())

// tierRequirements are the four QoP tiers of the paper's traffic generator
// (section 5), one per replica quality class, translated through a neutral
// profile.
func tierRequirements() []quasaq.Requirement {
	prof := quasaq.DefaultProfile("bench")
	tiers := paperload.Tiers()
	reqs := make([]quasaq.Requirement, len(tiers))
	for i, t := range tiers {
		reqs[i] = prof.Translate(t)
	}
	return reqs
}

// combo is one (video, tier, site) draw.
type combo struct{ video, tier, site int }

// drawBlock holds every (video, tier, site) combination weight[video] times.
func drawBlock(weight []int) []combo {
	var block []combo
	for v, w := range weight {
		for k := 0; k < w; k++ {
			for t := 0; t < numTiers; t++ {
				for s := range testbedSites {
					block = append(block, combo{v, t, s})
				}
			}
		}
	}
	return block
}

// balancedDraws returns n draws in whole blocks, each block shuffled by
// rng. Workload sizes are whole numbers of blocks, so any two seeds ask for
// the same multiset of streams and differ only in order and timing: with
// every query admitted and every stream played out, the work of a rep is
// then the same for every seed (the 1080 s keynote is 30% of all frames; an
// unbalanced draw moves a rep's work by several percent).
func balancedDraws(rng *simtime.Rand, n int, weight []int) []combo {
	block := drawBlock(weight)
	out := make([]combo, 0, n+len(block))
	for len(out) < n {
		for _, i := range rng.Perm(len(block)) {
			out = append(out, block[i])
		}
	}
	return out[:n]
}

func uniformWeights(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// zipfWeights are integer block multiplicities proportional to 1/rank^s,
// scaled so the least popular video still appears once per block.
func zipfWeights(n int, s float64) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = int(math.Round(math.Pow(float64(n)/float64(i+1), s)))
	}
	return w
}

// arrivals returns n sorted instants uniform on [0, horizon): a Poisson
// process conditioned on its count, so every seed offers exactly n queries
// over exactly the horizon. The arrivals are an open loop on the virtual
// clock; the generator cannot run late.
func arrivals(rng *simtime.Rand, n int, horizon time.Duration) []time.Duration {
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(horizon))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// streamQueries builds id-predicate queries with a WITH QOS clause over the
// standard corpus for the given draws.
func streamQueries(draws []combo, at []time.Duration) []query {
	reqs := tierRequirements()
	qs := make([]query, len(draws))
	for i, d := range draws {
		req := reqs[d.tier]
		qs[i] = query{
			site:  testbedSites[d.site],
			sql:   fmt.Sprintf("SELECT * FROM videos WHERE id = %d WITH QOS (%s)", d.video+1, req),
			req:   req,
			video: quasaq.VideoID(d.video + 1),
		}
		if at != nil {
			qs[i].at = at[i]
		}
	}
	return qs
}

// Catalogue clones: spec s, clone k has id k*corpusSize+s+1, a distinct title, a
// tag collNNNN of its own and a duration no other clone shares to within
// cloneStep, so each of the four content predicates names one video.
const (
	cloneStep  = 0.7 // seconds between consecutive clones of one spec
	cloneCount = 160 // clones per spec: 2400 videos of about 1.1 KB each, 320 heap pages for a 256-page pool
)

func bigCatalogue(seed uint64, clones int) []*quasaq.Video {
	base := quasaq.StandardCorpus(seed)
	out := make([]*quasaq.Video, 0, len(base)*clones)
	for k := 0; k < clones; k++ {
		for s, b := range base {
			v := *b
			v.ID = quasaq.VideoID(k*len(base) + s + 1)
			v.Title = fmt.Sprintf("%s-c%04d", b.Title, k)
			v.Duration = b.Duration + time.Duration(float64(k)*cloneStep*float64(time.Second))
			v.Tags = append(append([]string(nil), b.Tags...), cloneTag(int(v.ID)))
			v.Seed = b.Seed + uint64(k)*0x9E3779B97F4A7C15
			out = append(out, &v)
		}
	}
	return out
}

func cloneTag(id int) string { return fmt.Sprintf("coll%04d", id) }

// catalogBlock holds every (spec, tier, site, predicate) combination once.
const numPredicates = 4

var catalogBlock = corpusSize * numTiers * 3 * numPredicates

// catalogQueries asks for a different clone in every query, so the plan
// cache misses and the catalogue's pages are touched all over, and cycles
// four content predicates that each name that one clone: title equality, a
// tag of its own, a 0.6 s duration range, and the id. Like balancedDraws it
// deals whole shuffled blocks, here of spec x tier x site x predicate, so
// seeds differ in which clones are asked for and in what order, not in the
// mix of plan-space sizes and access paths.
func catalogQueries(rng *simtime.Rand, n int, videos []*quasaq.Video) []query {
	const specs = corpusSize
	reqs := tierRequirements()
	clones := len(videos) / specs
	// deal[spec][site] is the order in which that pair uses up its clones.
	var deal [specs][3][]int
	var used [specs][3]int
	for s := range deal {
		for site := range deal[s] {
			deal[s][site] = rng.Perm(clones)
		}
	}
	qs := make([]query, 0, n+catalogBlock)
	for len(qs) < n {
		for _, c := range rng.Perm(catalogBlock) {
			pred, site, tier, spec := c%numPredicates, c/numPredicates%3, c/numPredicates/3%numTiers, c/numPredicates/3/numTiers
			clone := deal[spec][site][used[spec][site]%clones]
			used[spec][site]++
			v := videos[clone*specs+spec]
			var where string
			switch pred {
			case 0:
				where = fmt.Sprintf("title = '%s'", v.Title)
			case 1:
				where = fmt.Sprintf("tags CONTAINS '%s'", cloneTag(int(v.ID)))
			case 2:
				d := v.Duration.Seconds()
				where = fmt.Sprintf("duration >= %.3f AND duration <= %.3f", d-0.3, d+0.3)
			default:
				where = fmt.Sprintf("id = %d", v.ID)
			}
			qs = append(qs, query{
				site:  testbedSites[site],
				sql:   fmt.Sprintf("SELECT * FROM videos WHERE %s WITH QOS (%s)", where, reqs[tier]),
				req:   reqs[tier],
				video: v.ID,
			})
		}
	}
	return qs[:n]
}

// faultSchedule scales the chaos to the horizon: two congestions, a
// partition and a crash with restart, each restored after 1-1.5% of the
// horizon. The windows are long enough to walk the guardian's ladder, trip
// the breakers and fail sessions over, and short enough that the sessions
// they touch are a few percent of the run: how many they touch depends on
// the order of arrivals, and that dependence is the run-to-run spread
// across seeds.
func faultSchedule(horizon time.Duration) quasaq.FaultSchedule {
	at := func(share float64) time.Duration { return time.Duration(share * float64(horizon)) }
	return quasaq.FaultSchedule{
		{At: at(0.150), Kind: quasaq.FaultLinkCongest, Target: "srv-a", Factor: 0.5},
		{At: at(0.165), Kind: quasaq.FaultLinkRestore, Target: "srv-a"},
		{At: at(0.400), Kind: quasaq.FaultLinkPartition, Target: "srv-c"},
		{At: at(0.408), Kind: quasaq.FaultLinkRestore, Target: "srv-c"},
		{At: at(0.550), Kind: quasaq.FaultNodeCrash, Target: "srv-b"},
		{At: at(0.560), Kind: quasaq.FaultNodeRestart, Target: "srv-b"},
		{At: at(0.750), Kind: quasaq.FaultLinkCongest, Target: "srv-c", Factor: 0.4},
		{At: at(0.765), Kind: quasaq.FaultLinkRestore, Target: "srv-c"},
	}
}
