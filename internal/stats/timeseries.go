package stats

import (
	"fmt"
	"strings"

	"quasaq/internal/simtime"
)

// TimeSeries buckets scalar observations by virtual time, producing the
// series plotted in Figures 6 and 7 (outstanding sessions, accomplished jobs
// per minute, cumulative rejects).
type TimeSeries struct {
	bucket simtime.Time
	sums   []float64
}

// NewTimeSeries returns a series with the given bucket width.
func NewTimeSeries(bucket simtime.Time) *TimeSeries {
	if bucket <= 0 {
		panic("stats: non-positive time-series bucket")
	}
	return &TimeSeries{bucket: bucket}
}

func (ts *TimeSeries) grow(i int) {
	for len(ts.sums) <= i {
		ts.sums = append(ts.sums, 0)
	}
}

// Observe records value x at virtual time t.
func (ts *TimeSeries) Observe(t simtime.Time, x float64) {
	i := int(t / ts.bucket)
	ts.grow(i)
	ts.sums[i] += x
}

// Sum returns the sum of observations in bucket i.
func (ts *TimeSeries) Sum(i int) float64 {
	if i >= len(ts.sums) {
		return 0
	}
	return ts.sums[i]
}

// Trace records (time, value) pairs in order; Figure 5's per-frame delay
// plots use it directly.
type Trace struct {
	Times  []simtime.Time
	Values []float64
}

// Add appends one point.
func (tr *Trace) Add(t simtime.Time, v float64) {
	tr.Times = append(tr.Times, t)
	tr.Values = append(tr.Values, v)
}

// Len returns the number of points.
func (tr *Trace) Len() int { return len(tr.Values) }

// ASCIIPlot renders the trace as a crude fixed-height column chart, one
// character column per downsampled point. It exists so that qsqbench output
// is legible in a terminal without plotting tools.
func (tr *Trace) ASCIIPlot(width, height int, yMax float64) string {
	if tr.Len() == 0 || width <= 0 || height <= 0 {
		return ""
	}
	cols := make([]float64, width)
	per := (tr.Len() + width - 1) / width
	for c := 0; c < width; c++ {
		var m float64
		lo, hi := c*per, (c+1)*per
		if lo >= tr.Len() {
			break
		}
		if hi > tr.Len() {
			hi = tr.Len()
		}
		for _, v := range tr.Values[lo:hi] {
			if v > m {
				m = v
			}
		}
		cols[c] = m
	}
	if yMax <= 0 {
		for _, v := range cols {
			if v > yMax {
				yMax = v
			}
		}
		if yMax == 0 {
			yMax = 1
		}
	}
	var b strings.Builder
	for row := height; row >= 1; row-- {
		thresh := yMax * float64(row) / float64(height)
		fmt.Fprintf(&b, "%8.1f |", thresh)
		for _, v := range cols {
			if v >= thresh {
				b.WriteByte('#')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("         +" + strings.Repeat("-", width) + "\n")
	return b.String()
}
