package core

import (
	"context"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
)

func testGenome(t *testing.T, n int, seed int64) dna.Seq {
	t.Helper()
	g, err := genome.Generate(genome.Config{
		Length: n, GC: 0.45, RepeatFraction: 0.2, RepeatFamilies: 5,
		RepeatUnitLen: 250, RepeatDivergence: 0.1, TandemFraction: 0.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g.Seq
}

// smallConfig scales the paper's parameters to test-sized genomes:
// smaller k (hits/seed regime preserved) and proportional N/h.
func smallConfig() Config {
	cfg := DefaultConfig(11, 600, 20)
	return cfg
}

func TestMapReadFindsTruePosition(t *testing.T) {
	ref := testGenome(t, 300000, 101)
	// Per-read-class D-SOFT tuning, mirroring Table 4's approach of
	// lowering k and raising N for noisier reads (values scaled to the
	// 300 kbp test genome).
	configs := map[string]Config{
		"PacBio": DefaultConfig(11, 600, 20),
		"ONT_2D": DefaultConfig(10, 800, 20),
		"ONT_1D": DefaultConfig(9, 1500, 18),
	}
	for _, p := range readsim.Profiles {
		d, err := New(ref, configs[p.Name])
		if err != nil {
			t.Fatal(err)
		}
		reads, err := readsim.SimulateN(ref, 10, readsim.Config{Profile: p, MeanLen: 3000, Seed: 102})
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i := range reads {
			r := &reads[i]
			alns, _ := d.MapRead(r.Seq)
			best := Best(alns)
			if best == nil {
				continue
			}
			if best.Result.RefStart >= r.RefStart-50 && best.Result.RefStart <= r.RefStart+50 {
				correct++
			}
		}
		if correct < 8 {
			t.Errorf("%s: mapped %d/10 reads to the true position, want ≥ 8", p.Name, correct)
		}
	}
}

func TestMapReadStrandHandling(t *testing.T) {
	ref := testGenome(t, 100000, 103)
	d, err := New(ref, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(ref, 20, readsim.Config{Profile: readsim.PacBio, MeanLen: 2000, Seed: 104})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reads {
		r := &reads[i]
		alns, _ := d.MapRead(r.Seq)
		best := Best(alns)
		if best == nil {
			t.Fatalf("read %d unmapped", i)
		}
		if best.Reverse != r.Reverse {
			t.Errorf("read %d: strand = %v, truth %v", i, best.Reverse, r.Reverse)
		}
		if err := best.Result.Check(ref, orient(r.Seq, best.Reverse)); err != nil {
			t.Errorf("read %d: %v", i, err)
		}
	}
}

func orient(q dna.Seq, rev bool) dna.Seq {
	if rev {
		return dna.RevComp(q)
	}
	return q
}

func TestMapStatsInstrumentation(t *testing.T) {
	ref := testGenome(t, 100000, 105)
	d, err := New(ref, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(ref, 3, readsim.Config{Profile: readsim.ONT2D, MeanLen: 2000, Seed: 106})
	if err != nil {
		t.Fatal(err)
	}
	for i := range reads {
		_, st := d.MapRead(reads[i].Seq)
		if st.DSOFT.SeedsIssued == 0 || st.DSOFT.Hits == 0 {
			t.Fatalf("read %d: no D-SOFT work recorded: %+v", i, st.DSOFT)
		}
		if st.Candidates == 0 || st.Tiles == 0 {
			t.Fatalf("read %d: no GACT work recorded: %+v", i, st)
		}
		if len(st.FirstTileScores) != st.Candidates && st.Candidates <= d.cfg.MaxCandidates {
			t.Errorf("read %d: first-tile scores %d != candidates %d",
				i, len(st.FirstTileScores), st.Candidates)
		}
		if st.PassedHTile > st.Candidates {
			t.Errorf("read %d: passed %d > candidates %d", i, st.PassedHTile, st.Candidates)
		}
		if st.FiltrationTime <= 0 || st.AlignmentTime <= 0 {
			t.Errorf("read %d: stage times missing: %+v", i, st)
		}
	}
}

// TestHTileFilterRejectsFalseHits checks the Figure 12 mechanism: with
// h_tile=90, candidates from unrelated sequence are rejected before
// extension.
func TestHTileFilterRejectsFalseHits(t *testing.T) {
	ref := testGenome(t, 100000, 107)
	cfg := smallConfig()
	cfg.Threshold = 12 // deliberately permissive: more false candidates
	d, err := New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A read from a different genome: every candidate is false.
	other := testGenome(t, 5000, 108)
	alns, st := d.MapRead(other[:3000])
	if st.Candidates > 0 && st.PassedHTile > st.Candidates/10 {
		t.Errorf("h_tile let through %d of %d false candidates", st.PassedHTile, st.Candidates)
	}
	for _, a := range alns {
		if a.FirstTileScore < cfg.HTile {
			t.Errorf("alignment passed with first-tile score %d < h_tile %d", a.FirstTileScore, cfg.HTile)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, smallConfig()); err == nil {
		t.Error("empty reference should error")
	}
	ref := testGenome(t, 1000, 109)
	bad := smallConfig()
	bad.SeedN = 0
	if _, err := New(ref, bad); err == nil {
		t.Error("N=0 should error")
	}
	bad = smallConfig()
	bad.GACT.T = 0
	if _, err := New(ref, bad); err == nil {
		// The GACT engine is built (and its config validated) at
		// construction, so a broken tile geometry fails fast instead of
		// silently mapping nothing.
		t.Error("invalid GACT config should error at construction")
	}
}

func TestOverlapperFindsTrueOverlaps(t *testing.T) {
	// Repeat-free genome: with no repeats, every reported pair must
	// come from genuinely intersecting templates. (On repetitive
	// genomes, cross-copy pairs are legitimate precision loss — the
	// quantity Table 4 measures — not correctness bugs.)
	g, err := genome.Generate(genome.Config{Length: 40000, GC: 0.45, Seed: 110})
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Seq
	reads, err := readsim.SimulateN(ref, 60, readsim.Config{Profile: readsim.PacBio, MeanLen: 2000, Seed: 111})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	cfg := DefaultConfig(11, 1000, 20)
	cfg.SeedStride = 2 // overlap workloads seed the whole read
	ov, err := NewOverlapper(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	overlaps, stats, err := ov.Run(context.Background(), OverlapRun{MinOverlap: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(overlaps) == 0 {
		t.Fatal("no overlaps found")
	}
	if stats.TableBuildTime <= 0 {
		t.Error("table build time not recorded")
	}

	// Ground truth: pairs whose template intervals intersect ≥ 1 kbp.
	truth := map[[2]int]bool{}
	for a := 0; a < len(reads); a++ {
		for b := a + 1; b < len(reads); b++ {
			lo := max(reads[a].RefStart, reads[b].RefStart)
			hi := min(reads[a].RefEnd, reads[b].RefEnd)
			if hi-lo >= 1000 {
				truth[[2]int{a, b}] = true
			}
		}
	}
	if len(truth) == 0 {
		t.Fatal("test setup produced no ground-truth overlaps")
	}
	found := map[[2]int]bool{}
	falsePairs := 0
	for i := range overlaps {
		o := &overlaps[i]
		a, b := o.Pair()
		if a == b {
			t.Fatalf("self overlap reported: %+v", o)
		}
		found[[2]int{a, b}] = true
		if !truth[[2]int{a, b}] {
			// Not necessarily wrong (shorter true overlaps exist), but
			// pairs with no template intersection at all are errors.
			lo := max(reads[a].RefStart, reads[b].RefStart)
			hi := min(reads[a].RefEnd, reads[b].RefEnd)
			if hi-lo < 200 {
				falsePairs++
			}
		}
		if o.TargetStart < 0 || o.TargetEnd > len(seqs[o.Target]) || o.TargetStart >= o.TargetEnd {
			t.Fatalf("overlap extent out of range: %+v", o)
		}
	}
	detected := 0
	for p := range truth {
		if found[p] {
			detected++
		}
	}
	sens := float64(detected) / float64(len(truth))
	if sens < 0.85 {
		t.Errorf("overlap sensitivity %.2f (%d/%d), want ≥ 0.85", sens, detected, len(truth))
	}
	if frac := float64(falsePairs) / float64(len(overlaps)); frac > 0.05 {
		t.Errorf("%.0f%% of overlaps have no template intersection", frac*100)
	}
}

func TestOverlapperErrors(t *testing.T) {
	if _, err := NewOverlapper(nil, smallConfig()); err == nil {
		t.Error("no reads should error")
	}
	cfg := smallConfig()
	cfg.BinSize = 0
	if _, err := NewOverlapper([]dna.Seq{dna.NewSeq("ACGT")}, cfg); err == nil {
		t.Error("zero bin size should error")
	}
}
