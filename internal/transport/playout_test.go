package transport

import (
	"testing"
	"time"

	"quasaq/internal/simtime"
)

func evenArrivals(n int, interval simtime.Time) []simtime.Time {
	out := make([]simtime.Time, n)
	for i := range out {
		out[i] = simtime.Time(i) * interval
	}
	return out
}

func TestAnalyzePlayoutSmooth(t *testing.T) {
	iv := 40 * time.Millisecond
	r := AnalyzePlayout(evenArrivals(100, iv), iv, 15)
	if r.Rebuffers != 0 || r.Stalled != 0 {
		t.Fatalf("smooth stream stalled: %+v", r)
	}
}

func TestAnalyzePlayoutWithGap(t *testing.T) {
	iv := 40 * time.Millisecond
	arr := evenArrivals(100, iv)
	// A one-second freeze in delivery after frame 50.
	for i := 50; i < 100; i++ {
		arr[i] += time.Second
	}
	r := AnalyzePlayout(arr, iv, 5)
	if r.Rebuffers != 1 {
		t.Fatalf("rebuffers = %d, want 1", r.Rebuffers)
	}
	if r.Stalled < 800*time.Millisecond || r.Stalled > 1200*time.Millisecond {
		t.Fatalf("stalled = %v, want ~1s", r.Stalled)
	}
}

func TestAnalyzePlayoutBurstyArrivals(t *testing.T) {
	// GOP-burst arrivals (15 frames at once every 625 ms) must play fine
	// with a one-GOP startup buffer.
	iv := simtime.Seconds(1 / 23.97)
	var arr []simtime.Time
	for g := 0; g < 20; g++ {
		at := simtime.Time(g) * 625 * time.Millisecond
		for f := 0; f < 15; f++ {
			arr = append(arr, at)
		}
	}
	r := AnalyzePlayout(arr, iv, 16)
	if r.Rebuffers != 0 {
		t.Fatalf("one-GOP buffer should absorb GOP bursts: %+v", r)
	}
	// A slower burst cadence (700 ms per 15-frame GOP, i.e. the server
	// under-delivers) stalls a single-frame buffer on every GOP.
	var slow []simtime.Time
	for g := 0; g < 20; g++ {
		at := simtime.Time(g) * 700 * time.Millisecond
		for f := 0; f < 15; f++ {
			slow = append(slow, at)
		}
	}
	r = AnalyzePlayout(slow, iv, 1)
	if r.Rebuffers < 10 {
		t.Fatalf("tiny buffer should stall repeatedly: %+v", r)
	}
}

func TestAnalyzePlayoutEdgeCases(t *testing.T) {
	if r := AnalyzePlayout(nil, time.Millisecond, 5); r != (PlayoutReport{}) {
		t.Fatalf("empty arrivals stalled: %+v", r)
	}
	// A zero interval is not analyzed: every frame would be late.
	if r := AnalyzePlayout([]simtime.Time{0, time.Second}, 0, 1); r != (PlayoutReport{}) {
		t.Fatalf("zero interval stalled: %+v", r)
	}
	// Startup larger than the stream clamps to the last frame.
	r := AnalyzePlayout(evenArrivals(3, time.Millisecond), time.Millisecond, 100)
	if r != (PlayoutReport{}) {
		t.Fatalf("clamped startup stalled: %+v", r)
	}
}
