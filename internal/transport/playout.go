package transport

import (
	"quasaq/internal/simtime"
)

// PlayoutReport summarizes a client playout simulation over recorded frame
// arrivals: the user-perceived consequence of the delays Figures 5 plots.
// A session that holds its inter-frame delays near ideal plays with zero
// rebuffering after the startup delay; VDBMS's burst-and-starve arrivals
// stall repeatedly.
type PlayoutReport struct {
	// Rebuffers counts playback stalls after startup.
	Rebuffers int
	// Stalled is the total time playback was frozen after startup.
	Stalled simtime.Time
}

// AnalyzePlayout simulates a client that buffers startupFrames frames
// before starting playback at the given frame interval, then displays one
// frame per interval, stalling whenever the next frame has not arrived by
// its deadline. Arrivals must be non-decreasing.
func AnalyzePlayout(arrivals []simtime.Time, interval simtime.Time, startupFrames int) PlayoutReport {
	var r PlayoutReport
	if len(arrivals) == 0 || interval <= 0 {
		return r
	}
	if startupFrames < 1 {
		startupFrames = 1
	}
	if startupFrames > len(arrivals) {
		startupFrames = len(arrivals)
	}
	playStart := arrivals[startupFrames-1]
	for i, at := range arrivals {
		deadline := playStart + simtime.Time(i)*interval
		if at > deadline {
			// Stall until the frame arrives; playback timeline shifts.
			stall := at - deadline
			r.Rebuffers++
			r.Stalled += stall
			playStart += stall
		}
	}
	return r
}
