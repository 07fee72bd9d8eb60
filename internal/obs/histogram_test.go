package obs

import (
	"math"
	"strings"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for _, v := range []float64{-5, 0, 5, 15, 95, 99.9, 100, 250} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Counts[0] != 2 || s.Counts[1] != 1 || s.Counts[9] != 2 {
		t.Errorf("counts = %v", s.Counts)
	}
	if s.Under != 1 || s.Over != 2 {
		t.Errorf("under/over = %d/%d", s.Under, s.Over)
	}
	// 4 of 8 observations are strictly below 50 (-5, 0, 5, 15).
	if got := s.FractionBelow(50); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("FractionBelow(50) = %v, want 0.5", got)
	}
	// A split bin contributes its part below v: bin [0, 10) holds 2,
	// so v = 5 adds int(2 × 0.5) = 1 to the under-range 1.
	if got := s.FractionBelow(5); math.Abs(got-2.0/8) > 1e-9 {
		t.Errorf("FractionBelow(5) = %v, want 0.25", got)
	}
	out := s.Render(20)
	if !strings.Contains(out, "#") || !strings.Contains(out, "below range") {
		t.Errorf("render missing content:\n%s", out)
	}
}

// Regression: a histogram with bins <= 0 or max <= min used to yield
// divide-by-zero/NaN bin indexing (and a panic on empty bins).
func TestHistogramDegenerateConfig(t *testing.T) {
	cases := []struct {
		name     string
		min, max float64
		bins     int
	}{
		{"zero bins", 0, 10, 0},
		{"negative bins", 0, 10, -3},
		{"max equals min", 5, 5, 4},
		{"max below min", 10, 2, 4},
		{"nan max", 0, math.NaN(), 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := NewHistogram(c.min, c.max, c.bins)
			for _, v := range []float64{-1e9, c.min - 1, c.min, c.min + 0.5, c.max, 1e9} {
				h.Observe(v) // must not panic or index with NaN
			}
			s := h.Snapshot()
			if len(s.Counts) < 1 {
				t.Fatalf("bins clamped to %d, want >= 1", len(s.Counts))
			}
			if !(s.Max > s.Min) {
				t.Fatalf("range [%g, %g) not clamped to max > min", s.Min, s.Max)
			}
			total := s.Under + s.Over
			for _, n := range s.Counts {
				total += n
			}
			if total != s.Count {
				t.Errorf("observations lost: binned %d, count %d", total, s.Count)
			}
			if out := s.Render(10); out == "" {
				t.Error("Render returned nothing")
			}
		})
	}
}

// A degenerate Histogram value built without the constructor must
// still tally in Observe instead of panicking.
func TestHistogramHandBuiltDegenerate(t *testing.T) {
	h := &Histogram{min: 3, max: 3}
	h.Observe(2)
	h.Observe(3)
	h.Observe(4)
	if s := h.Snapshot(); s.Count != 3 || s.Under != 1 || s.Over != 2 {
		t.Errorf("under=%d over=%d count=%d, want 1/2/3", s.Under, s.Over, s.Count)
	}
}

// A snapshot decoded from elsewhere (a run report, a Sub) renders and
// answers FractionBelow from its fields alone.
func TestHistogramSnapshotRender(t *testing.T) {
	s := HistogramSnapshot{Min: 0, Max: 10, Counts: []int64{1, 2, 3}, Under: 4, Over: 5, Count: 15}
	want := "       0.0 | ###        1\n" +
		"       3.3 | ######     2\n" +
		"       6.7 | ########## 3\n" +
		"      <min | 4 below range\n" +
		"      >max | 5 above range\n"
	if out := s.Render(10); out != want {
		t.Errorf("render:\n%s\nwant:\n%s", out, want)
	}
	if got := s.FractionBelow(10); math.Abs(got-10.0/15) > 1e-9 {
		t.Errorf("FractionBelow(10) = %v, want 10/15", got)
	}
}
