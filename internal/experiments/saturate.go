package experiments

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"time"

	"quasaq/internal/broker"
	"quasaq/internal/gara"
	"quasaq/internal/obs"
	"quasaq/internal/qos"
	"quasaq/internal/runner"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
	"quasaq/internal/vsa"
)

// The saturate experiment asks what the admission hot path costs at
// "millions of users" scale, in two passes over one hot site.
//
// The fidelity pass is deterministic and serial: the same Zipf-skewed
// sliding-window session stream is admitted once through the
// broker-serialized slow path (two-phase reservation straight onto the
// gara node) and once through the VSA accumulator, and each run hashes its
// admit/reject sequence. Demands are integral, so the accumulator's fixed
// point converts them exactly and the two hashes must match — that is the
// "byte-identical decisions" acceptance pin, and because it runs through
// the hermetic runner its CSV is identical for any worker count.
//
// The throughput pass is the wall-clock benchmark: many goroutines replay
// the same stream concurrently, baseline mode serializing every admission
// through a global lock around the coordinator (the honest model of a
// single-threaded control plane), vsa mode going lock-free through
// TryAdmit/Release with a periodic committer flush reconciling the
// authoritative books. Its numbers (admissions/sec, decision-latency
// quantiles) are real time and therefore machine-dependent; they are
// printed and deliberately kept out of the CSV so determinism checks stay
// meaningful.

// SaturateConfig parameterizes both passes.
type SaturateConfig struct {
	Seed       int64
	Sessions   int     // total session arrivals per run
	Live       int     // sliding-window size: admitting session i releases session i-Live
	Goroutines int     // throughput pass: concurrent admission loops
	ZipfS      float64 // video-popularity skew exponent (>1)
	Videos     int     // distinct videos behind the Zipf draw
	FlushEvery int     // vsa throughput mode: committer flush cadence, in admissions
}

// DefaultSaturateConfig drives 100k concurrent-window sessions: a 20k-deep
// window over 100k arrivals with textbook 1.1 Zipf skew across 512 titles.
func DefaultSaturateConfig() SaturateConfig {
	return SaturateConfig{
		Seed:       11,
		Sessions:   100_000,
		Live:       20_000,
		Goroutines: 8,
		ZipfS:      1.1,
		Videos:     512,
		FlushEvery: 64,
	}
}

func (c SaturateConfig) validate() error {
	if c.Sessions <= 0 {
		return fmt.Errorf("experiments: saturate needs sessions > 0")
	}
	if c.Live <= 0 || c.Live > c.Sessions {
		return fmt.Errorf("experiments: saturate window %d outside (0, %d]", c.Live, c.Sessions)
	}
	if c.Videos <= 0 || c.ZipfS <= 1 {
		return fmt.Errorf("experiments: saturate needs videos > 0 and zipf s > 1")
	}
	return nil
}

func (c SaturateConfig) goroutines() int {
	if c.Goroutines <= 0 {
		return 1
	}
	return c.Goroutines
}

func (c SaturateConfig) flushEvery() int {
	if c.FlushEvery <= 0 {
		return 64
	}
	return c.FlushEvery
}

// sessionDemand maps a video to its integral per-session resource vector.
// Units are deliberately scaled — kB/s for the bandwidth axes, MiB for
// memory — so even a million-deep window keeps every axis total under the
// accumulator's exact fixed-point range (~2^32 units at 20 fractional
// bits). Integral values in that range convert exactly, which is what makes
// fixed-point and float admission decisions provably equal; byte-denominated
// capacities at this window depth would clamp and quietly tighten an axis.
func sessionDemand(video int) qos.ResourceVector {
	var v qos.ResourceVector
	v[qos.ResNetBandwidth] = float64(200 + 50*(video%7))  // kB/s
	v[qos.ResDiskBandwidth] = float64(200 + 50*(video%7)) // kB/s
	v[qos.ResMemory] = float64(1 + video%4)               // MiB
	return v
}

// saturateCapacity sizes the hot site so roughly half the sliding window
// fits: the stream then runs permanently saturated and every admission is a
// genuine decision, not a formality. Same scaled units as sessionDemand.
func saturateCapacity(live int) gara.NodeCapacity {
	const meanNet = 350 // kB/s, mid-point of sessionDemand's net axis
	return gara.NodeCapacity{
		NetBandwidth:  float64(live) * meanNet / 2,
		DiskBandwidth: float64(live) * meanNet / 2,
		Memory:        float64(live) * 2.5 / 2, // half the window's mean MiB
	}
}

// saturateStream precomputes the session arrival order: the video (and so
// the demand vector) of every arrival, drawn Zipf-skewed from one derived
// seed so both modes and every goroutine split replay the identical stream.
func saturateStream(cfg SaturateConfig, seed int64) []int {
	rng := simtime.NewRand(simtime.DeriveSeed(seed, "saturate-stream"))
	draw := rng.Zipf(cfg.ZipfS, cfg.Videos)
	videos := make([]int, cfg.Sessions)
	for i := range videos {
		videos[i] = draw()
	}
	return videos
}

// saturateWorld builds the hot site and its synchronous control plane.
func saturateWorld(live int) (*gara.Node, *broker.Coordinator, error) {
	sim := simtime.NewSimulator()
	reg := obs.NewRegistry()
	node := gara.NewNode(sim, "hot", saturateCapacity(live))
	net, err := broker.NewNet(sim, broker.Config{}, reg)
	if err != nil {
		return nil, nil, err
	}
	net.Register("hot", broker.New(sim, node, reg).Handle)
	return node, broker.NewCoordinator(net, reg), nil
}

// SaturatePoint is one fidelity-mode outcome.
type SaturatePoint struct {
	Mode     string
	Sessions int
	Live     int
	Admitted int
	Rejected int
	// DecisionHash is FNV-1a over the admit/reject sequence — the byte-level
	// identity the broker and vsa modes must share.
	DecisionHash uint64
	Replicas     int
}

func (p *SaturatePoint) reps() int {
	if p.Replicas < 1 {
		return 1
	}
	return p.Replicas
}

// Merge folds another replica in: counters sum; the hash stays replica 0's
// canonical sequence (replicas draw different streams by design).
func (p *SaturatePoint) Merge(o *SaturatePoint) {
	p.Sessions += o.Sessions
	p.Admitted += o.Admitted
	p.Rejected += o.Rejected
	p.Replicas = p.reps() + o.reps()
}

// RunSaturatePoint replays the stream serially through one mode and hashes
// every decision.
func RunSaturatePoint(cfg SaturateConfig, mode string, seed int64) (*SaturatePoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	videos := saturateStream(cfg, seed)
	out := &SaturatePoint{Mode: mode, Sessions: cfg.Sessions, Live: cfg.Live}
	h := fnv.New64a()
	decide := func(admitted bool) {
		if admitted {
			out.Admitted++
			h.Write([]byte{'A'})
		} else {
			out.Rejected++
			h.Write([]byte{'R'})
		}
	}

	switch mode {
	case "broker":
		node, coord, err := saturateWorld(cfg.Live)
		if err != nil {
			return nil, err
		}
		leases := make([]*gara.Lease, cfg.Sessions)
		for i, v := range videos {
			if old := i - cfg.Live; old >= 0 && leases[old] != nil {
				leases[old].Release()
				leases[old] = nil
			}
			coord.Reserve("hot", []broker.Participant{{
				Site: "hot", Name: "sess", Vec: sessionDemand(v), Period: simtime.Seconds(1),
			}}, nil, func(ls []*gara.Lease, err error) {
				if err == nil {
					leases[i] = ls[0]
				}
				decide(err == nil)
			})
		}
		_ = node
	case "vsa":
		acc := vsa.NewAccumulator(saturateCapacity(cfg.Live).Vector(), 0)
		node, coord, err := saturateWorld(cfg.Live)
		if err != nil {
			return nil, err
		}
		com := vsa.NewCommitter(acc, node, coord, "hot", 0)
		holds := make([]vsa.Hold, cfg.Sessions)
		admitted := make([]bool, cfg.Sessions)
		for i, v := range videos {
			if old := i - cfg.Live; old >= 0 && admitted[old] {
				acc.Release(uint64(old), holds[old])
			}
			holds[i], admitted[i] = acc.TryAdmit(uint64(i), sessionDemand(v))
			decide(admitted[i])
			if i%cfg.flushEvery() == 0 {
				if err := com.Flush(); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("experiments: unknown saturate mode %q", mode)
	}
	out.DecisionHash = h.Sum64()
	return out, nil
}

// SaturateScenario runs the two fidelity modes as sweep points.
type SaturateScenario struct {
	Cfg SaturateConfig
}

// Name implements runner.Scenario.
func (s *SaturateScenario) Name() string { return "saturate" }

// Points implements runner.Scenario.
func (s *SaturateScenario) Points() []runner.Point {
	return []runner.Point{
		{Key: "broker", Label: "broker-serialized slow path"},
		{Key: "vsa", Label: "vsa accumulator fast path"},
	}
}

// Run implements runner.Scenario.
func (s *SaturateScenario) Run(p runner.Point, seed int64) (*SaturatePoint, error) {
	return RunSaturatePoint(s.Cfg, p.Key, seed)
}

// RunSaturateParallel sweeps the fidelity pair on the worker pool.
func RunSaturateParallel(cfg SaturateConfig, opts runner.Options) ([]*SaturatePoint, error) {
	opts.Seed = cfg.Seed
	prs, err := runner.Sweep[*SaturatePoint](&SaturateScenario{Cfg: cfg}, opts)
	if err != nil {
		return nil, err
	}
	out := make([]*SaturatePoint, len(prs))
	for i, pr := range prs {
		out[i] = pr.Result
	}
	return out, nil
}

// SaturateTable renders the fidelity pass as tidy CSV. Wall-clock numbers
// are deliberately absent: every column here is deterministic.
func SaturateTable(points []*SaturatePoint) Table {
	t := Table{Header: []string{"mode", "sessions", "live", "admitted", "rejected", "decision_hash"}}
	for _, p := range points {
		reps := p.reps()
		t.Rows = append(t.Rows, []string{
			p.Mode,
			fmtCount(p.Sessions, reps),
			strconv.Itoa(p.Live),
			fmtCount(p.Admitted, reps),
			fmtCount(p.Rejected, reps),
			fmt.Sprintf("%016x", p.DecisionHash),
		})
	}
	return t
}

// SaturateThroughput is one wall-clock benchmark outcome.
type SaturateThroughput struct {
	Mode             string  `json:"mode"`
	Sessions         int     `json:"sessions"`
	Goroutines       int     `json:"goroutines"`
	Admitted         int     `json:"admitted"`
	Rejected         int     `json:"rejected"`
	ElapsedS         float64 `json:"elapsed_s"`
	AdmissionsPerSec float64 `json:"admissions_per_sec"`
	P50us            float64 `json:"decision_p50_us"`
	P99us            float64 `json:"decision_p99_us"`
	MaxUs            float64 `json:"decision_max_us"`
}

// RunSaturateThroughput replays the stream concurrently and times every
// admission decision. The arrival stream is split contiguously across
// goroutines, each running its own sliding window over its share.
func RunSaturateThroughput(cfg SaturateConfig, mode string) (*SaturateThroughput, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if mode != "baseline" && mode != "vsa" {
		return nil, fmt.Errorf("experiments: unknown saturate throughput mode %q", mode)
	}
	videos := saturateStream(cfg, cfg.Seed)
	g := cfg.goroutines()
	window := cfg.Live / g
	if window == 0 {
		window = 1
	}

	node, coord, err := saturateWorld(cfg.Live)
	if err != nil {
		return nil, err
	}
	acc := vsa.NewAccumulator(saturateCapacity(cfg.Live).Vector(), 0)
	com := vsa.NewCommitter(acc, node, coord, "hot", 0)

	// The baseline's global lock is the model of a single-threaded control
	// plane: coordinator state is not concurrency-safe, so every admission
	// waits its turn.
	var ctrlMu sync.Mutex

	type shard struct {
		admitted, rejected int
		lat                *stats.Sample
	}
	shards := make([]shard, g)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		w := w
		lo := w * cfg.Sessions / g
		hi := (w + 1) * cfg.Sessions / g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := &shards[w]
			sh.lat = &stats.Sample{}
			switch mode {
			case "baseline":
				leases := make([]*gara.Lease, hi-lo)
				ok := make([]bool, hi-lo)
				for i := lo; i < hi; i++ {
					j := i - lo
					t0 := time.Now()
					ctrlMu.Lock()
					if old := j - window; old >= 0 && ok[old] {
						leases[old].Release()
						ok[old] = false
					}
					coord.Reserve("hot", []broker.Participant{{
						Site: "hot", Name: "sess", Vec: sessionDemand(videos[i]), Period: simtime.Seconds(1),
					}}, nil, func(ls []*gara.Lease, err error) {
						if err == nil {
							leases[j], ok[j] = ls[0], true
						}
					})
					ctrlMu.Unlock()
					sh.lat.Add(float64(time.Since(t0).Nanoseconds()) / 1e3)
					if ok[j] {
						sh.admitted++
					} else {
						sh.rejected++
					}
				}
			case "vsa":
				holds := make([]vsa.Hold, hi-lo)
				ok := make([]bool, hi-lo)
				for i := lo; i < hi; i++ {
					j := i - lo
					t0 := time.Now()
					if old := j - window; old >= 0 && ok[old] {
						acc.Release(uint64(i), holds[old])
						ok[old] = false
					}
					holds[j], ok[j] = acc.TryAdmit(uint64(i), sessionDemand(videos[i]))
					sh.lat.Add(float64(time.Since(t0).Nanoseconds()) / 1e3)
					if ok[j] {
						sh.admitted++
					} else {
						sh.rejected++
					}
					if j%cfg.flushEvery() == 0 {
						_ = com.Flush() // retried by later flushes; benchmark world has no faults
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	out := &SaturateThroughput{Mode: mode, Sessions: cfg.Sessions, Goroutines: g, ElapsedS: elapsed}
	lat := &stats.Sample{}
	for i := range shards {
		out.Admitted += shards[i].admitted
		out.Rejected += shards[i].rejected
		for _, x := range shards[i].lat.Values() {
			lat.Add(x)
		}
	}
	if elapsed > 0 {
		out.AdmissionsPerSec = float64(cfg.Sessions) / elapsed
	}
	out.P50us = lat.Percentile(50)
	out.P99us = lat.Percentile(99)
	out.MaxUs = lat.Summary().Max()
	return out, nil
}

// RunSaturateThroughputPair benchmarks both modes back to back.
func RunSaturateThroughputPair(cfg SaturateConfig) ([]*SaturateThroughput, error) {
	var out []*SaturateThroughput
	for _, mode := range []string{"baseline", "vsa"} {
		p, err := RunSaturateThroughput(cfg, mode)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// saturateThroughputMode finds a named throughput mode (nil if absent).
func saturateThroughputMode(ts []*SaturateThroughput, mode string) *SaturateThroughput {
	for _, t := range ts {
		if t.Mode == mode {
			return t
		}
	}
	return nil
}

// FormatSaturate renders both passes the way an operator reads them:
// fidelity first (do the two paths agree?), then what the fast path buys.
func FormatSaturate(cfg SaturateConfig, fidelity []*SaturatePoint, throughput []*SaturateThroughput) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Saturate: %d sessions, %d-deep window, Zipf s=%.2f over %d videos, one hot site\n\n",
		cfg.Sessions, cfg.Live, cfg.ZipfS, cfg.Videos)
	fmt.Fprintf(&b, "%-8s %10s %10s %10s  %s\n", "mode", "sessions", "admitted", "rejected", "decision_hash")
	for _, p := range fidelity {
		reps := p.reps()
		fmt.Fprintf(&b, "%-8s %10s %10s %10s  %016x\n",
			p.Mode, fmtCount(p.Sessions, reps), fmtCount(p.Admitted, reps), fmtCount(p.Rejected, reps), p.DecisionHash)
	}
	if len(fidelity) == 2 {
		if fidelity[0].DecisionHash == fidelity[1].DecisionHash {
			b.WriteString("\nDecision sequences byte-identical across modes.\n")
		} else {
			b.WriteString("\nWARNING: decision sequences diverged between modes.\n")
		}
	}
	if len(throughput) > 0 {
		fmt.Fprintf(&b, "\n%-9s %11s %12s %14s %12s %12s\n",
			"mode", "goroutines", "elapsed_s", "admissions/s", "p50_us", "p99_us")
		for _, t := range throughput {
			fmt.Fprintf(&b, "%-9s %11d %12.3f %14.0f %12.2f %12.2f\n",
				t.Mode, t.Goroutines, t.ElapsedS, t.AdmissionsPerSec, t.P50us, t.P99us)
		}
		if base, fast := saturateThroughputMode(throughput, "baseline"), saturateThroughputMode(throughput, "vsa"); base != nil && fast != nil && base.AdmissionsPerSec > 0 {
			fmt.Fprintf(&b, "\nVSA fast path: %.1fx the broker-serialized admissions/sec\n",
				fast.AdmissionsPerSec/base.AdmissionsPerSec)
		}
	}
	return b.String()
}
