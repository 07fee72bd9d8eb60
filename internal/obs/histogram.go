package obs

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// Histogram is a fixed-width bin histogram over [min, max), safe for
// concurrent observation. Out-of-range observations are tallied in
// under/over buckets.
type Histogram struct {
	min, max float64
	bins     []atomic.Int64
	under    atomic.Int64
	over     atomic.Int64
	count    atomic.Int64
	sumBits  atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram that no Registry holds, for callers
// that only want its binning and renderers. Invalid configurations are
// clamped rather than deferred to Observe: bins is raised to at least
// 1, and a range with max ≤ min (or NaN bounds) becomes [min, min+1),
// so bin indexing never divides by zero.
func NewHistogram(minV, maxV float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if !(maxV > minV) { // also catches NaN bounds
		maxV = minV + 1
	}
	return &Histogram{min: minV, max: maxV, bins: make([]atomic.Int64, bins)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	switch {
	case v < h.min:
		h.under.Add(1)
	case v >= h.max:
		h.over.Add(1)
	default:
		i := int((v - h.min) / (h.max - h.min) * float64(len(h.bins)))
		if i < 0 {
			i = 0
		}
		if i >= len(h.bins) {
			i = len(h.bins) - 1
		}
		h.bins[i].Add(1)
	}
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Counts []int64 `json:"counts"`
	Under  int64   `json:"under,omitempty"`
	Over   int64   `json:"over,omitempty"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Min:    h.min,
		Max:    h.max,
		Counts: make([]int64, len(h.bins)),
		Under:  h.under.Load(),
		Over:   h.over.Load(),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.bins {
		s.Counts[i] = h.bins[i].Load()
	}
	return s
}

// Mean returns the mean observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Sub returns the change since prev. Snapshots with different bin
// layouts (a renamed or re-bucketed histogram) diff as s itself.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if len(prev.Counts) != len(s.Counts) || prev.Min != s.Min || prev.Max != s.Max {
		return s
	}
	out := s
	out.Counts = make([]int64, len(s.Counts))
	for i := range s.Counts {
		out.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	out.Under -= prev.Under
	out.Over -= prev.Over
	out.Count -= prev.Count
	out.Sum -= prev.Sum
	return out
}

// binLow returns the lower edge of bin i.
func (s HistogramSnapshot) binLow(i int) float64 {
	return s.Min + (s.Max-s.Min)*float64(i)/float64(len(s.Counts))
}

// FractionBelow returns the fraction of observations strictly below v.
// A bin that v splits contributes in proportion to the part below v.
func (s HistogramSnapshot) FractionBelow(v float64) float64 {
	if s.Count == 0 {
		return 0
	}
	n := s.Under
	for i, c := range s.Counts {
		lo, hi := s.binLow(i), s.binLow(i+1)
		if hi <= v {
			n += c
		} else if lo < v {
			n += int64(float64(c) * (v - lo) / (hi - lo))
		}
	}
	return float64(n) / float64(s.Count)
}

// Render draws the snapshot as an ASCII bar chart with the given
// maximum bar width, one line per bin plus a line each for the under-
// and over-range tallies when they are non-zero.
func (s HistogramSnapshot) Render(width int) string {
	maxCount := int64(1)
	for _, c := range s.Counts {
		maxCount = max(maxCount, c)
	}
	var b strings.Builder
	for i, c := range s.Counts {
		bar := strings.Repeat("#", int(c*int64(width)/maxCount))
		fmt.Fprintf(&b, "%10.1f | %-*s %d\n", s.binLow(i), width, bar, c)
	}
	if s.Under > 0 {
		fmt.Fprintf(&b, "%10s | %d below range\n", "<min", s.Under)
	}
	if s.Over > 0 {
		fmt.Fprintf(&b, "%10s | %d above range\n", ">max", s.Over)
	}
	return b.String()
}
