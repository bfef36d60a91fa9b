package main

import (
	"errors"
	"fmt"
	"time"

	"quasaq"
	"quasaq/internal/simtime"
)

// inputs are what one rep runs on, all derived from the seed.
type inputs struct {
	spec    worldSpec
	warm    []query // issued on the measured world during set-up
	queries []query // the measured phase
}

// workload is one set of inputs and the way they are driven.
type workload struct {
	name string
	why  string
	// A rep issues blocks*block measured queries at the default run
	// length; other run lengths scale the number of whole blocks.
	block  int
	blocks int
	mode   driveMode
	build  func(seed int64, n int) inputs
	// prepare readies the measured world during set-up and returns any
	// sessions it leaves live for the driver to cancel at teardown.
	prepare func(sys system, in inputs) ([]*quasaq.Delivery, error)
	// scratchWarm is how many queries of the list are first played on a
	// throwaway world: it warms the process where the measured world must
	// start cold.
	scratchWarm int
	// probeEvery is the sampling stride of the traced rep's layer probes.
	probeEvery int
}

// Arrival rates of the two streaming workloads, in queries per virtual
// second. Neither is the paper's traffic: section 5 offers 1 query/s, about
// twice what the testbed carries, and half of it is refused. Which half is
// chaotic in the arrival order, and a benchmark judged across seeds cannot
// gate on it: at 1 query/s ten seeds spread allocs_per_query by 3 to 6% and
// the reject share by 2%, and already at 0.12 query/s a burst meeting the
// 1080 s keynote refuses 0 to 4 queries of 360 depending on the seed
// (README, "Why the streaming workloads run below saturation"). At these
// rates no seed tried had a query refused for lack of capacity, so every
// seed streams the same multiset of sessions. The refuse path has
// reject-storm; streaming under partial admission has no workload.
const (
	paperRate = 0.08 // the paper's mix at a twelfth of its 1 query/s
	tiersRate = 0.3
)

// tiers-async streams the nine corpus videos of at most three minutes.
// Faults do lose work there - a query refused during a partition, a session
// the guardian abandons - and with the 1080 s keynote in the catalogue one
// session is 1.5% of a rep's frames, so whether a fault caught it decided
// the rep's allocation count (2% spread across seeds).
const tiersVideos = 9

var (
	uniformBlock = len(drawBlock(uniformWeights(corpusSize))) // 180: every (video, tier, site) once
	zipfBlock    = len(drawBlock(zipfWeights(tiersVideos, 1.1)))
)

func horizonFor(n int, rate float64) time.Duration {
	return time.Duration(float64(n) / rate * float64(time.Second))
}

var workloads = []*workload{
	{
		name:   "paper-stream",
		why:    "uniform video x tier x site mix at 0.08 query/s, below saturation so every query is admitted and streamed to its end: nine tenths of the wall is the event loop, the rest admission",
		block:  uniformBlock,
		blocks: 2,
		mode:   driveMode{openLoop: true, window: -1, drain: true},
		build: func(seed int64, n int) inputs {
			rng := simtime.NewRand(seed)
			draws := balancedDraws(rng, n, uniformWeights(corpusSize))
			at := arrivals(rng, n, horizonFor(n, paperRate))
			return inputs{spec: worldSpec{videos: quasaq.StandardCorpus(uint64(seed))}, queries: streamQueries(draws, at)}
		},
		scratchWarm: 60,
		probeEvery:  4,
	},
	{
		name:   "admit-churn",
		why:    "the accept path alone: warm plan cache, rank, one granted two-phase reserve, bind, release; almost no streaming",
		block:  uniformBlock,
		blocks: 140,
		mode:   driveMode{tick: time.Millisecond, window: 8},
		build: func(seed int64, n int) inputs {
			rng := simtime.NewRand(seed)
			warm := max(n/10/uniformBlock, 2) * uniformBlock // two blocks fill every plan-cache key
			qs := streamQueries(balancedDraws(rng, warm+n, uniformWeights(corpusSize)), nil)
			return inputs{spec: worldSpec{videos: quasaq.StandardCorpus(uint64(seed))}, warm: qs[:warm], queries: qs[warm:]}
		},
		prepare: func(sys system, in inputs) ([]*quasaq.Delivery, error) {
			newPlayer(driveMode{tick: time.Millisecond, window: 8}, sys, nil, in.warm).play()
			sys.RunUntilIdle()
			return nil, nil
		},
		probeEvery: 100,
	},
	{
		name:   "reject-storm",
		why:    "the refuse path: a full cluster, every query walks its whole ranked plan list through failed PREPAREs and rollbacks",
		block:  uniformBlock,
		blocks: 65,
		mode:   driveMode{window: -1},
		build: func(seed int64, n int) inputs {
			rng := simtime.NewRand(seed)
			return inputs{spec: worldSpec{videos: quasaq.StandardCorpus(uint64(seed))},
				queries: streamQueries(balancedDraws(rng, n, uniformWeights(corpusSize)), nil)}
		},
		prepare:    fillCluster,
		probeEvery: 100,
	},
	{
		name:   "catalog-cold",
		why:    "the content phase and cold enumeration: a 2400-video catalogue larger than the buffer pool, four predicates, plan cache always missing",
		block:  catalogBlock,
		blocks: 5,
		mode:   driveMode{tick: time.Millisecond, window: 0},
		build: func(seed int64, n int) inputs {
			rng := simtime.NewRand(seed)
			videos := bigCatalogue(uint64(seed), cloneCount)
			return inputs{spec: worldSpec{videos: videos}, queries: catalogQueries(rng, n, videos)}
		},
		scratchWarm: 200,
		probeEvery:  12,
	},
	{
		name:   "tiers-async",
		why:    "every tier on at once over an asynchronous control plane with faults: admission spans simulator events, split, farm, failover and guardian paths run together",
		block:  zipfBlock,
		blocks: 3,
		mode:   driveMode{openLoop: true, window: -1, async: true, drain: true},
		build: func(seed int64, n int) inputs {
			rng := simtime.NewRand(seed)
			draws := balancedDraws(rng, n, zipfWeights(tiersVideos, 1.1))
			horizon := horizonFor(n, tiersRate)
			return inputs{
				spec:    worldSpec{videos: quasaq.StandardCorpus(uint64(seed))[:tiersVideos], tiers: true, faults: faultSchedule(horizon)},
				queries: streamQueries(draws, arrivals(rng, n, horizon)),
			}
		},
		scratchWarm: 120,
		probeEvery:  4,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fillCluster admits default-requirement deliveries round-robin over sites
// and videos until 200 have been refused: every site is then full for every
// video, and the measured queries can only be refused.
func fillCluster(sys system, in inputs) ([]*quasaq.Delivery, error) {
	var fills []*quasaq.Delivery
	sites := sys.Sites()
	for i, refused := 0, 0; refused < 200; i++ {
		v := in.spec.videos[i%len(in.spec.videos)]
		site := sites[(i+i/len(in.spec.videos))%len(sites)] // every video meets every site
		d, err := sys.Deliver(site, v.ID, quasaq.Requirement{})
		switch {
		case err == nil:
			fills = append(fills, d)
		case errors.Is(err, quasaq.ErrRejected):
			refused++
		default:
			return nil, err
		}
	}
	return fills, nil
}
