package transport

import (
	"errors"
	"testing"

	"quasaq/internal/gara"
	"quasaq/internal/qos"
	"quasaq/internal/simtime"
)

func TestSessionCancelIdempotent(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(10)
	va := dvdVariant(v.FrameRate)
	lease, err := node.Reserve("s", streamDemand(va, v.FrameRate, DropNone, v), v.FrameInterval())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	s, err := StartReserved(sim, node, Config{Video: v, Variant: va}, lease, func(*Session) { done++ })
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(simtime.Seconds(2))
	s.Cancel()
	before := node.Usage()
	s.Cancel()
	if node.Usage() != before {
		t.Fatal("second Cancel changed node usage")
	}
	if u := node.Usage(); u != (qos.ResourceVector{}) {
		t.Fatalf("usage after cancel = %v, want every lease released", u)
	}
	sim.Run()
	if done != 0 {
		t.Fatal("cancelled session fired onDone")
	}
}

func TestSessionFailOnLeaseRevocation(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(30)
	va := dvdVariant(v.FrameRate)
	lease, err := node.Reserve("s", streamDemand(va, v.FrameRate, DropNone, v), v.FrameInterval())
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	s, err := StartReserved(sim, node, Config{Video: v, Variant: va}, lease, func(*Session) { done++ })
	if err != nil {
		t.Fatal(err)
	}
	var failCause error
	s.SetOnFail(func(_ *Session, cause error) { failCause = cause })
	sim.ScheduleAt(simtime.Seconds(5), func() { node.Fail() })
	sim.Run()
	if !s.Failed() || !s.Done() {
		t.Fatalf("failed=%v done=%v after node crash", s.Failed(), s.Done())
	}
	if done != 0 {
		t.Fatal("failed session also fired onDone")
	}
	if failCause == nil {
		t.Fatal("fail cause not recorded")
	}
	if !errors.Is(failCause, gara.ErrLeaseRevoked) || !errors.Is(failCause, gara.ErrNodeDown) {
		t.Fatalf("fail cause %v missing taxonomy", failCause)
	}
	if got := s.FramesDelivered(); got <= 0 || got >= v.Frames() {
		t.Fatalf("delivered %d frames, want a mid-stream count", got)
	}
}

func TestSessionFailThenCancelIsNoOp(t *testing.T) {
	sim := simtime.NewSimulator()
	node := gara.NewNode(sim, "srv", gara.DefaultCapacity())
	v := testVideo(30)
	va := dvdVariant(v.FrameRate)
	lease, err := node.Reserve("s", streamDemand(va, v.FrameRate, DropNone, v), v.FrameInterval())
	if err != nil {
		t.Fatal(err)
	}
	s, err := StartReserved(sim, node, Config{Video: v, Variant: va}, lease, nil)
	if err != nil {
		t.Fatal(err)
	}
	var causes []error
	s.SetOnFail(func(_ *Session, cause error) { causes = append(causes, cause) })
	sim.RunUntil(simtime.Seconds(3))
	s.Fail(errors.New("injected"))
	s.Cancel() // must not double-release or clear failure state
	s.Fail(errors.New("again"))
	if !s.Failed() {
		t.Fatal("failure state lost")
	}
	if len(causes) != 1 || causes[0].Error() != "injected" {
		t.Fatalf("fail causes = %v, want only the first", causes)
	}
	if u := node.Usage(); u != (qos.ResourceVector{}) {
		t.Fatalf("usage = %v, want every lease released", u)
	}
}
