package olc

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
)

// testReads simulates a small long-read set with a known genome.
func testReads(t *testing.T, genomeLen, nReads int) []dna.Seq {
	t.Helper()
	g, err := genome.Generate(genome.Config{Length: genomeLen, GC: 0.45, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, nReads, readsim.Config{Profile: readsim.PacBio, MeanLen: 2000, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	return seqs
}

func testConfig() core.Config {
	cfg := core.DefaultConfig(11, 800, 20)
	cfg.SeedStride = 2
	return cfg
}

// contigsEqual reports whether two contig sets are byte-identical,
// including names and descriptions.
func contigsEqual(a, b []dna.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Desc != b[i].Desc || !bytes.Equal(a[i].Seq, b[i].Seq) {
			return false
		}
	}
	return true
}

// TestAssembleMatchesLegacyPipeline: the option-based Assemble must
// reproduce the stage-by-stage BuildLayoutContext/Splice/PolishContext
// pipeline (the historical darwin-assemble flow) byte for byte.
func TestAssembleMatchesLegacyPipeline(t *testing.T) {
	seqs := testReads(t, 20000, 60)
	cfg := testConfig()
	const minOverlap = 1000
	const polishRounds = 1

	asm, err := Assemble(context.Background(), seqs,
		WithConfig(cfg), WithMinOverlap(minOverlap), WithPolishRounds(polishRounds))
	if err != nil {
		t.Fatal(err)
	}

	// Legacy path: detect at half the nominal minimum, positional calls.
	ovp, err := core.NewOverlapper(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	overlaps := mustOverlaps(t, ovp, minOverlap/2)
	readLens := make([]int, len(seqs))
	for i := range seqs {
		readLens[i] = len(seqs[i])
	}
	layout := mustLayout(t, readLens, overlaps)
	var legacy []dna.Record
	for ci, contig := range layout.Contigs {
		seq := Splice(seqs, contig)
		for round := 0; round < polishRounds && len(contig.Placements) > 1; round++ {
			polished, err := PolishContext(context.Background(), seq, seqs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seq = polished
		}
		legacy = append(legacy, dna.Record{
			Name: fmt.Sprintf("contig_%d", ci),
			Desc: fmt.Sprintf("reads=%d len=%d", len(contig.Placements), len(seq)),
			Seq:  seq,
		})
	}

	if !contigsEqual(asm.Contigs, legacy) {
		t.Fatalf("Assemble contigs differ from legacy pipeline: %d vs %d contigs",
			len(asm.Contigs), len(legacy))
	}
}

// TestAssembleCheckpointResume: a run resumed from any mid-overlap
// checkpoint must produce byte-identical contigs to an uninterrupted
// run — the property the job manager's kill-and-resume flow rests on.
func TestAssembleCheckpointResume(t *testing.T) {
	seqs := testReads(t, 20000, 60)
	cfg := testConfig()
	opts := []Option{WithConfig(cfg), WithMinOverlap(1000), WithPolishRounds(0)}

	var ckpts []core.OverlapCheckpoint
	full, err := Assemble(context.Background(), seqs,
		append(opts, WithCheckpoint(8, nil, func(c core.OverlapCheckpoint) error {
			ckpts = append(ckpts, c)
			return nil
		}))...)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpts) == 0 {
		t.Fatal("no checkpoints written")
	}

	for _, ci := range []int{0, len(ckpts) / 2, len(ckpts) - 1} {
		resume := ckpts[ci]
		resumed, err := Assemble(context.Background(), seqs,
			append(opts, WithCheckpoint(0, &resume, nil))...)
		if err != nil {
			t.Fatal(err)
		}
		if !contigsEqual(full.Contigs, resumed.Contigs) {
			t.Errorf("resume from checkpoint %d (next_read=%d): contigs differ from full run",
				ci, resume.NextRead)
		}
	}
}

// TestAssembleCancelSavesBoundaryCheckpoint: cancelling mid-overlap
// must save a checkpoint at the read boundary, and resuming from it
// must complete to the same contigs as an uninterrupted run.
func TestAssembleCancelSavesBoundaryCheckpoint(t *testing.T) {
	seqs := testReads(t, 20000, 60)
	cfg := testConfig()
	opts := []Option{WithConfig(cfg), WithMinOverlap(1000), WithPolishRounds(0)}

	full, err := Assemble(context.Background(), seqs, opts...)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var last *core.OverlapCheckpoint
	_, err = Assemble(ctx, seqs,
		append(opts,
			WithProgress(func(stage string, done, total int) {
				if stage == "overlap" && done == total/2 {
					cancel()
				}
			}),
			WithCheckpoint(0, nil, func(c core.OverlapCheckpoint) error {
				last = &c
				return nil
			}))...)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if last == nil {
		t.Fatal("no boundary checkpoint saved on cancel")
	}
	if last.NextRead == 0 || last.NextRead >= len(seqs) {
		t.Fatalf("boundary checkpoint next_read = %d, want mid-run (0, %d)", last.NextRead, len(seqs))
	}

	resumed, err := Assemble(context.Background(), seqs,
		append(opts, WithCheckpoint(0, last, nil))...)
	if err != nil {
		t.Fatal(err)
	}
	if !contigsEqual(full.Contigs, resumed.Contigs) {
		t.Error("contigs after cancel+resume differ from uninterrupted run")
	}
}

// TestAssembleReorderInvariance: reordering changes the layout stage's
// iteration order, never its output — contigs must be byte-identical
// under every mode.
func TestAssembleReorderInvariance(t *testing.T) {
	seqs := testReads(t, 20000, 60)
	cfg := testConfig()
	opts := []Option{WithConfig(cfg), WithMinOverlap(1000), WithPolishRounds(0)}

	base, err := Assemble(context.Background(), seqs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if base.Reorder != nil {
		t.Error("Reorder report non-nil with reordering off")
	}
	for _, mode := range []ReorderMode{ReorderRCM, ReorderFarthest} {
		asm, err := Assemble(context.Background(), seqs, append(opts, WithReorder(mode))...)
		if err != nil {
			t.Fatal(err)
		}
		if !contigsEqual(base.Contigs, asm.Contigs) {
			t.Errorf("mode %s: contigs differ from unordered run", mode)
		}
		r := asm.Reorder
		if r == nil {
			t.Fatalf("mode %s: nil reorder report", mode)
		}
		if r.Mode != mode {
			t.Errorf("report mode = %s, want %s", r.Mode, mode)
		}
		if r.Edges == 0 {
			t.Errorf("mode %s: zero edges in report", mode)
		}
		if r.MaxAfter > r.MaxBefore {
			t.Logf("mode %s: bandwidth grew %d -> %d (allowed, but unusual)", mode, r.MaxBefore, r.MaxAfter)
		}
	}
}

// TestAssembleWithOverlapperReuse: a pre-built engine must give the
// same result as letting Assemble build its own.
func TestAssembleWithOverlapperReuse(t *testing.T) {
	seqs := testReads(t, 20000, 60)
	cfg := testConfig()
	opts := []Option{WithConfig(cfg), WithMinOverlap(1000), WithPolishRounds(0)}

	base, err := Assemble(context.Background(), seqs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ovp, err := core.NewOverlapper(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := Assemble(context.Background(), seqs, append(opts, WithOverlapper(ovp))...)
	if err != nil {
		t.Fatal(err)
	}
	if !contigsEqual(base.Contigs, reused.Contigs) {
		t.Error("contigs differ when reusing a pre-built overlapper")
	}
}

// TestOverlapResumedComplete: a checkpoint covering every read makes
// the overlap stage a pure replay of the checkpointed overlaps.
func TestOverlapResumedComplete(t *testing.T) {
	seqs := testReads(t, 20000, 40)
	cfg := testConfig()

	overlaps, _, err := Overlap(context.Background(), seqs, WithConfig(cfg), WithMinOverlap(500))
	if err != nil {
		t.Fatal(err)
	}
	done := &core.OverlapCheckpoint{NextRead: len(seqs), Overlaps: overlaps}
	replayed, _, err := Overlap(context.Background(), seqs,
		WithConfig(cfg), WithMinOverlap(500), WithCheckpoint(0, done, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(overlaps) {
		t.Fatalf("replayed %d overlaps, want %d", len(replayed), len(overlaps))
	}
	for i := range overlaps {
		if overlaps[i] != replayed[i] {
			t.Fatalf("overlap %d differs after replay", i)
		}
	}
}

// TestDefaultSettingsShape guards the documented defaults.
func TestDefaultSettingsShape(t *testing.T) {
	s := DefaultSettings()
	if s.MinOverlap != 1000 || s.PolishRounds != 2 || s.Reorder != ReorderOff {
		t.Errorf("defaults = %+v", s)
	}
	if s.Config.SeedK != 12 || s.Config.SeedStride != 4 {
		t.Errorf("default config = %+v", s.Config)
	}
}

// TestAssembleProgressStages: every stage must report progress ending
// at done == total.
func TestAssembleProgressStages(t *testing.T) {
	seqs := testReads(t, 20000, 40)
	final := map[string][2]int{}
	_, err := Assemble(context.Background(), seqs,
		WithConfig(testConfig()), WithMinOverlap(1000), WithPolishRounds(1),
		WithProgress(func(stage string, done, total int) {
			final[stage] = [2]int{done, total}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"overlap", "layout", "consensus"} {
		p, ok := final[stage]
		if !ok {
			t.Errorf("stage %q reported no progress", stage)
			continue
		}
		if p[0] != p[1] {
			t.Errorf("stage %q finished at %d/%d", stage, p[0], p[1])
		}
	}
}
