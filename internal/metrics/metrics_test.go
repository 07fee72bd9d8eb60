package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestConfusion(t *testing.T) {
	c := Confusion{TP: 90, FP: 10, FN: 30}
	if got := c.Sensitivity(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("sensitivity = %v, want 0.75", got)
	}
	if got := c.Precision(); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("precision = %v, want 0.9", got)
	}
	if got := c.FalseHitRate(); math.Abs(got-10.0/90) > 1e-12 {
		t.Errorf("FHR = %v", got)
	}
	var z Confusion
	if z.Sensitivity() != 0 || z.Precision() != 0 || z.FalseHitRate() != 0 {
		t.Error("zero confusion should yield zeros")
	}
	z.FP = 5
	if !math.IsInf(z.FalseHitRate(), 1) {
		t.Error("FHR with no TPs should be +Inf")
	}
	z.Add(Confusion{TP: 1, FN: 2})
	if z.TP != 1 || z.FP != 5 || z.FN != 2 {
		t.Errorf("Add result %+v", z)
	}
}

func TestTableRender(t *testing.T) {
	var tb Table
	tb.Header = []string{"k", "hits/seed", "Kseeds/s"}
	tb.AddRow("11", "1866.1", "1426.9")
	tb.AddRow("15", "8.7", "91138.7")
	out := tb.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "k ") {
		t.Errorf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[2], "1866.1") {
		t.Errorf("row content missing: %q", lines[2])
	}
}

func TestRenderSeries(t *testing.T) {
	a := &Series{Name: "GACT (software)"}
	b := &Series{Name: "Edlib"}
	for _, x := range []float64{1, 2, 3} {
		a.Append(x, x*10)
		b.Append(x, x*x)
	}
	out := RenderSeries("Kbp", a, b)
	if !strings.Contains(out, "GACT (software)") || !strings.Contains(out, "Edlib") {
		t.Errorf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "30") || !strings.Contains(out, "9") {
		t.Errorf("missing values:\n%s", out)
	}
}
