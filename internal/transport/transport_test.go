package transport

import (
	"math"
	"testing"
	"time"

	"quasaq/internal/gara"
	"quasaq/internal/media"
	"quasaq/internal/netsim"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
	"quasaq/internal/stats"
)

func testVideo(seconds float64) *media.Video {
	return &media.Video{
		ID: 1, Title: "t", Duration: simtime.Seconds(seconds), FrameRate: 23.97,
		GOP: media.DefaultGOP(), Seed: 424242,
	}
}

func dvdVariant(fps float64) media.Variant {
	return media.NewVariant(qos.AppQoS{
		Resolution: qos.ResDVD, ColorDepth: 24, FrameRate: fps, Format: qos.FormatMPEG1,
	})
}

func streamDemand(va media.Variant, fps float64, drop DropStrategy, v *media.Video) qos.ResourceVector {
	var d qos.ResourceVector
	d[qos.ResCPU] = StreamCPUCost(va, fps)
	d[qos.ResNetBandwidth] = va.Bitrate * drop.ByteFactor(v, va)
	d[qos.ResDiskBandwidth] = va.Bitrate
	return d
}

func TestDropStrategyKeep(t *testing.T) {
	gop := media.DefaultGOP()
	cases := []struct {
		d         DropStrategy
		perGOP    int
		dropsI    bool
		dropsAnyP bool
	}{
		{DropNone, 15, false, false},
		{DropHalfB, 10, false, false},
		{DropAllB, 5, false, false},
		{DropBAndP, 1, false, true},
	}
	for _, c := range cases {
		kept := 0
		for i := 0; i < 15; i++ {
			if c.d.Keep(gop, i) {
				kept++
			}
		}
		if kept != c.perGOP {
			t.Errorf("%v keeps %d/15, want %d", c.d, kept, c.perGOP)
		}
		if !c.d.Keep(gop, 0) {
			t.Errorf("%v dropped an I frame", c.d)
		}
	}
	// Keep must be deterministic across GOPs.
	for i := 0; i < 15; i++ {
		if DropHalfB.Keep(gop, i) != DropHalfB.Keep(gop, i+15) {
			t.Fatal("half-B pattern differs between GOPs")
		}
	}
}

func TestDropFactors(t *testing.T) {
	v := testVideo(10)
	va := dvdVariant(v.FrameRate)
	if f := DropNone.ByteFactor(v, va); f != 1 {
		t.Fatalf("no-drop byte factor = %v", f)
	}
	fAllB := DropAllB.ByteFactor(v, va)
	// Dropping the 10 small B frames keeps the I+4P share: roughly 70-75%.
	if fAllB < 0.6 || fAllB > 0.85 {
		t.Fatalf("all-B byte factor = %v, want ~0.72", fAllB)
	}
	fHalf := DropHalfB.ByteFactor(v, va)
	if fHalf <= fAllB || fHalf >= 1 {
		t.Fatalf("half-B factor = %v, want between all-B (%v) and 1", fHalf, fAllB)
	}
	if f := DropBAndP.FrameFactor(v.GOP); math.Abs(f-1.0/15) > 1e-9 {
		t.Fatalf("B+P frame factor = %v", f)
	}
	if fr := DropAllB.EffectiveFrameRate(v.GOP, 30); math.Abs(fr-10) > 1e-9 {
		t.Fatalf("all-B effective rate = %v, want 10", fr)
	}
}

func TestReservedSessionDeliversAllFrames(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(10)
	va := dvdVariant(v.FrameRate)
	lease, err := node.Reserve("s", streamDemand(va, v.FrameRate, DropNone, v), v.FrameInterval())
	if err != nil {
		t.Fatal(err)
	}
	var finished *Session
	s, err := StartReserved(sim, node, Config{Video: v, Variant: va, TraceFrames: 240}, lease, func(x *Session) { finished = x })
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if finished != s {
		t.Fatal("onDone not fired")
	}
	if s.FramesDelivered() != v.Frames() {
		t.Fatalf("delivered %d frames, want %d", s.FramesDelivered(), v.Frames())
	}
	// Duration should be within a GOP of the nominal playback time.
	elapsed := simtime.ToSeconds(s.Finished() - s.started)
	if elapsed < 9.5 || elapsed > 11.5 {
		t.Fatalf("session took %.2f s for a 10 s video", elapsed)
	}
	if u := node.Usage(); u != (qos.ResourceVector{}) {
		t.Fatalf("lease not released at completion: usage %v", u)
	}
}

func TestReservedSessionInterFrameStats(t *testing.T) {
	// Low-contention Figure 5b / Table 2: mean inter-frame delay near the
	// ideal 41.72 ms with VBR-driven dispersion, inter-GOP near 625.8 ms
	// with much smaller dispersion.
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(60)
	va := dvdVariant(v.FrameRate)
	lease, err := node.Reserve("s", streamDemand(va, v.FrameRate, DropNone, v), v.FrameInterval())
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartReserved(sim, node, Config{Video: v, Variant: va, TraceFrames: 1001}, lease, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	var sum stats.Summary
	for _, d := range s.InterFrameDelaysMillis() {
		sum.Add(d)
	}
	if math.Abs(sum.Mean()-41.72) > 3 {
		t.Fatalf("inter-frame mean = %.2f ms, want ~41.72", sum.Mean())
	}
	if sum.StdDev() < 10 || sum.StdDev() > 70 {
		t.Fatalf("inter-frame sd = %.2f ms, want VBR-scale dispersion", sum.StdDev())
	}
	var gsum stats.Summary
	for _, d := range s.InterGOPDelaysMillis() {
		gsum.Add(d)
	}
	if math.Abs(gsum.Mean()-625.8) > 20 {
		t.Fatalf("inter-GOP mean = %.2f ms, want ~625.8", gsum.Mean())
	}
	if gsum.StdDev() >= sum.StdDev() {
		t.Fatalf("GOP aggregation should smooth dispersion: %v >= %v", gsum.StdDev(), sum.StdDev())
	}
}

// bestEffortLoad returns the bandwidth the link's best-effort flows take:
// a probe flow demanding more than the unreserved capacity is left exactly
// the part they do not use (max-min fairness, every other demand smaller).
func bestEffortLoad(l *netsim.Link) float64 {
	p := l.Join(2*l.Available()+1, nil)
	defer p.Leave()
	return l.Available() - p.Rate()
}

func TestBestEffortSessionCompletes(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(10)
	va := dvdVariant(v.FrameRate)
	var doneAt simtime.Time
	s, err := StartBestEffort(sim, node, Config{Video: v, Variant: va}, func(x *Session) { doneAt = x.Finished() })
	if err != nil {
		t.Fatal(err)
	}
	if s.lease != nil {
		t.Fatal("best-effort session holds a reservation")
	}
	sim.Run()
	if !s.Done() || doneAt == 0 {
		t.Fatal("best-effort session never finished")
	}
	if load := bestEffortLoad(node.Link()); load != 0 {
		t.Fatalf("flow leaked: %v B/s of best-effort load left", load)
	}
	if s.BytesDelivered() <= 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestBestEffortLosesFramesUnderBandwidthContention(t *testing.T) {
	// Ten DVD streams (~4.76 MB/s demand) on a 3.2 MB/s link: UDP
	// semantics mean the sessions stay clock-paced but lose the excess —
	// the VDBMS failure mode behind Figure 6b's low success count.
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(10)
	va := dvdVariant(v.FrameRate)
	var finished []*Session
	for i := 0; i < 10; i++ {
		if _, err := StartBestEffort(sim, node, Config{Video: v, Variant: va}, func(x *Session) {
			finished = append(finished, x)
		}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if len(finished) != 10 {
		t.Fatalf("finished %d/10", len(finished))
	}
	last := finished[len(finished)-1]
	elapsed := simtime.ToSeconds(last.Finished())
	if elapsed > 14 {
		t.Fatalf("clock-paced sessions took %.1f s for a 10 s video", elapsed)
	}
	if last.LossRatio() < 0.2 {
		t.Fatalf("loss ratio = %.2f; a 1.5x-oversubscribed link should lose ~33%%", last.LossRatio())
	}
	if last.QoSOK() {
		t.Fatal("heavily lossy session reported QoS success")
	}
}

func TestReservedSessionQoSOK(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(10)
	va := dvdVariant(v.FrameRate)
	lease, err := node.Reserve("s", streamDemand(va, v.FrameRate, DropNone, v), v.FrameInterval())
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartReserved(sim, node, Config{Video: v, Variant: va}, lease, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if s.LossRatio() != 0 || s.framesShed != 0 {
		t.Fatalf("reserved session lost frames: loss=%v shed=%d", s.LossRatio(), s.framesShed)
	}
	if !s.QoSOK() {
		t.Fatalf("uncontended reserved session failed QoS: mean=%.2f ideal=%.2f",
			s.DelayStats().Mean(), s.IdealInterFrameMillis())
	}
}

func TestBestEffortShedsUnderCPUBacklog(t *testing.T) {
	// Saturate the CPU with spinning hogs so the streaming job's backlog
	// crosses the shedding bound.
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	for i := 0; i < 120; i++ {
		hog := node.CPU().NewBestEffortJob()
		var spin simtime.Func
		spin = func() { hog.Submit(8*time.Millisecond, spin, 0) }
		hog.Submit(8*time.Millisecond, spin, 0)
	}
	v := testVideo(20)
	va := dvdVariant(v.FrameRate)
	s, err := StartBestEffort(sim, node, Config{Video: v, Variant: va}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(120 * time.Second)
	if s.framesShed == 0 {
		t.Fatal("no frames shed despite hopeless CPU backlog")
	}
	if !s.Done() {
		t.Fatal("shedding session never completed")
	}
}

func TestDropReducesDeliveredFramesAndBytes(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(10)
	va := dvdVariant(v.FrameRate)
	full, err := StartBestEffort(sim, node, Config{Video: v, Variant: va}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	sim2 := simtime.NewSimulator()
	node2 := gara.NewNode(sim2, "srv", gara.DefaultCapacity())
	dropped, err := StartBestEffort(sim2, node2, Config{Video: v, Variant: va, Drop: DropAllB}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim2.Run()
	if dropped.FramesDelivered()*3 != full.FramesDelivered() {
		t.Fatalf("all-B delivered %d frames vs %d full; want exactly 1/3",
			dropped.FramesDelivered(), full.FramesDelivered())
	}
	if dropped.BytesDelivered() >= full.BytesDelivered() {
		t.Fatal("dropping B frames did not reduce bytes")
	}
}

func TestSessionCancelReleasesResources(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(60)
	va := dvdVariant(v.FrameRate)
	lease, err := node.Reserve("s", streamDemand(va, v.FrameRate, DropNone, v), v.FrameInterval())
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	s, err := StartReserved(sim, node, Config{Video: v, Variant: va}, lease, func(*Session) { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	sim.Schedule(2*time.Second, s.Cancel)
	sim.Run()
	if fired {
		t.Fatal("onDone fired for cancelled session")
	}
	if !s.Cancelled() {
		t.Fatal("session not marked cancelled")
	}
	if u := node.Usage(); u != (qos.ResourceVector{}) {
		t.Fatalf("cancel leaked the lease: usage %v", u)
	}
	u := node.Usage()
	if u[qos.ResNetBandwidth] > 1e-9 {
		t.Fatalf("network not released: %v", u)
	}
}

func TestStartReservedValidation(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(5)
	va := dvdVariant(v.FrameRate)
	if _, err := StartReserved(sim, node, Config{Video: v, Variant: va}, nil, nil); err == nil {
		t.Fatal("nil lease accepted")
	}
	// Lease without CPU reservation.
	var netOnly qos.ResourceVector
	netOnly[qos.ResNetBandwidth] = 100e3
	l, err := node.Reserve("x", netOnly, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartReserved(sim, node, Config{Video: v, Variant: va}, l, nil); err == nil {
		t.Fatal("lease without CPU job accepted")
	}
}

func TestStreamCPUCostScalesWithQuality(t *testing.T) {
	dvd := dvdVariant(23.97)
	cifVar := media.NewVariant(media.LadderQuality(media.LinkT1, 23.97))
	if StreamCPUCost(dvd, 23.97) <= StreamCPUCost(cifVar, 23.97) {
		t.Fatal("CPU cost not monotone in bitrate")
	}
	c := StreamCPUCost(dvd, 23.97)
	if c < 0.01 || c > 0.05 {
		t.Fatalf("DVD stream CPU cost = %v, want ~0.023", c)
	}
}

// The steady-state frame path — GOP pacing, frame release, CPU task,
// completion — is budgeted at no more than one allocation per GOP once the
// first GOP has sized the session's buffers and the simulator's free list.
func TestReservedSessionAllocationBudgetPerGOP(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(200)
	va := dvdVariant(v.FrameRate)
	lease, err := node.Reserve("s", streamDemand(va, v.FrameRate, DropNone, v), v.FrameInterval())
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartReserved(sim, node, Config{Video: v, Variant: va}, lease, nil)
	if err != nil {
		t.Fatal(err)
	}
	gop := v.GOPInterval()
	sim.RunUntil(gop + gop/2) // into the second GOP
	const gops = 100
	before := s.FramesDelivered()
	// AllocsPerRun calls the function once to warm up and once to measure.
	allocs := testing.AllocsPerRun(1, func() { sim.RunUntil(sim.Now() + gops*gop) })
	if got, want := s.FramesDelivered()-before, 2*gops*v.GOP.Len(); got != want {
		t.Fatalf("streamed %d frames in %d GOPs, want %d", got, 2*gops, want)
	}
	if s.Done() {
		t.Fatal("session ended inside the measured window")
	}
	t.Logf("%.0f allocations over %d GOPs", allocs, gops)
	if allocs > gops {
		t.Fatalf("%.0f allocations over %d GOPs, budget is one per GOP", allocs, gops)
	}
}
