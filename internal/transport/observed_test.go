package transport

import (
	"math"
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/simtime"
)

func TestObservedQoSCleanStream(t *testing.T) {
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
	o := s.Observed()
	if o.Frames != v.Frames() {
		t.Fatalf("observed %d frames, want %d", o.Frames, v.Frames())
	}
	if o.Delays != v.Frames()-1 {
		t.Fatalf("delay samples = %d, want %d", o.Delays, v.Frames()-1)
	}
	if o.LossFraction != 0 || o.FramesLost != 0 || o.FramesShed != 0 {
		t.Fatalf("clean stream reports loss: %+v", o)
	}
	ideal := 1000 / v.FrameRate
	if math.Abs(o.IdealDelayMillis-ideal) > 1e-9 {
		t.Fatalf("ideal = %v, want %v", o.IdealDelayMillis, ideal)
	}
	// VBR shapes per-frame delays around the ideal: the mean stays close,
	// the jitter (mean |delay-ideal|) is positive, the max above the mean.
	if math.Abs(o.MeanDelayMillis-ideal) > 0.25*ideal {
		t.Fatalf("mean delay %v too far from ideal %v", o.MeanDelayMillis, ideal)
	}
	if o.JitterMillis <= 0 {
		t.Fatal("no jitter observed on a VBR stream")
	}
	if o.MaxDelayMillis < o.MeanDelayMillis {
		t.Fatalf("max %v below mean %v", o.MaxDelayMillis, o.MeanDelayMillis)
	}
	if got := o.MeanDelayMillis * float64(o.Delays); math.Abs(got-o.DelaySumMillis) > 1e-6 {
		t.Fatalf("delay sum %v inconsistent with mean×n %v", o.DelaySumMillis, got)
	}
}

func TestObservedQoSUnderCongestion(t *testing.T) {
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
	// Cross traffic squeezes the achieved rate well below the booking: the
	// clock-paced stream loses the bytes that no longer fit each GOP window.
	node.Link().Congest(0.1)
	sim.Run()
	o := s.Observed()
	if o.LossFraction <= 0.05 {
		t.Fatalf("loss fraction = %v, want > 0.05 under 0.1 congestion", o.LossFraction)
	}
	if s.QoSOK() {
		t.Fatal("QoSOK true despite heavy congestion loss")
	}
}

func TestStepDownReducesCongestionLoss(t *testing.T) {
	run := func(stepDown bool) float64 {
		sim := simtime.NewSimulator()
		node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
		v := testVideo(20)
		va := dvdVariant(v.FrameRate)
		lease, err := node.Reserve("s", streamDemand(va, v.FrameRate, DropNone, v), v.FrameInterval())
		if err != nil {
			t.Fatal(err)
		}
		s, err := StartReserved(sim, node, Config{Video: v, Variant: va}, lease, nil)
		if err != nil {
			t.Fatal(err)
		}
		node.Link().Congest(0.1)
		if stepDown {
			sim.Schedule(simtime.Seconds(2), func() { s.StepDown(DropAllB) })
		}
		sim.Run()
		return s.Observed().LossFraction
	}
	plain := run(false)
	stepped := run(true)
	if plain <= 0 {
		t.Fatal("congestion produced no loss — the comparison is vacuous")
	}
	if stepped >= plain {
		t.Fatalf("step-down loss %v not below un-stepped %v", stepped, plain)
	}
}

func TestStepDownOnBestEffortResizesDemand(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(10)
	va := dvdVariant(v.FrameRate)
	s, err := StartBestEffort(sim, node, Config{Video: v, Variant: va}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Drop() != DropNone {
		t.Fatalf("initial drop = %v", s.Drop())
	}
	s.StepDown(DropAllB)
	if s.Drop() != DropAllB {
		t.Fatalf("drop after step-down = %v", s.Drop())
	}
	want := va.Bitrate * DropAllB.ByteFactor(v, va)
	if got := bestEffortLoad(node.Link()); math.Abs(got-want) > 1e-6 {
		t.Fatalf("best-effort load = %v, want only the resized flow's %v", got, want)
	}
	if got := s.currentRate(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("flow rate = %v, want resized demand %v", got, want)
	}
	sim.Run()
}

func TestNextHarsherLadder(t *testing.T) {
	order := []DropStrategy{DropNone, DropHalfB, DropAllB, DropBAndP}
	for i := 0; i < len(order)-1; i++ {
		next, ok := NextHarsher(order[i])
		if !ok || next != order[i+1] {
			t.Fatalf("NextHarsher(%v) = %v,%v, want %v,true", order[i], next, ok, order[i+1])
		}
	}
	if _, ok := NextHarsher(DropBAndP); ok {
		t.Fatal("ladder did not end at DropBAndP")
	}
}
