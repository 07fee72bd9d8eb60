package core

import (
	"context"
	"reflect"
	"testing"

	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/readsim"
)

// overlapFixture is a repeat-bearing 20 kbp genome at ~5× in 2 kbp
// PacBio reads, overlapped with de novo seeding.
func overlapFixture(t *testing.T) *Overlapper {
	t.Helper()
	ref := testGenome(t, 20000, 140)
	reads, err := readsim.SimulateN(ref, 48, readsim.Config{Profile: readsim.PacBio, MeanLen: 2000, Seed: 141})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	cfg := DefaultConfig(11, 800, 20)
	cfg.SeedStride = 2
	ov, err := NewOverlapper(seqs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

// runCollect runs an overlap pass on the given number of workers,
// returning its overlaps and every checkpoint Save received.
func runCollect(t *testing.T, ov *Overlapper, r OverlapRun, workers int) ([]Overlap, []OverlapCheckpoint) {
	t.Helper()
	var ckpts []OverlapCheckpoint
	r.Save = func(c OverlapCheckpoint) error {
		ckpts = append(ckpts, c)
		return nil
	}
	out, _, err := ov.run(context.Background(), r, workers)
	if err != nil {
		t.Fatal(err)
	}
	return out, ckpts
}

// TestOverlapRunWorkerInvariance: overlaps and every checkpoint are
// identical at 1, 2 and 4 workers — the in-order merge keeps the
// first-seen tie-break whatever order reads finish in.
func TestOverlapRunWorkerInvariance(t *testing.T) {
	ov := overlapFixture(t)
	want, wantCkpts := runCollect(t, ov, OverlapRun{MinOverlap: 500, CheckpointEvery: 5}, 1)
	if len(want) == 0 || len(wantCkpts) == 0 {
		t.Fatalf("fixture: %d overlaps, %d checkpoints", len(want), len(wantCkpts))
	}
	for _, w := range []int{2, 4} {
		got, ckpts := runCollect(t, ov, OverlapRun{MinOverlap: 500, CheckpointEvery: 5}, w)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: overlaps differ from workers=1", w)
		}
		if !reflect.DeepEqual(ckpts, wantCkpts) {
			t.Errorf("workers=%d: checkpoints differ from workers=1", w)
		}
	}
}

// TestOverlapRunResume: resuming from every checkpoint boundary, and
// cancelling mid-pass then resuming from the cancellation checkpoint,
// both give the uninterrupted run's overlaps.
func TestOverlapRunResume(t *testing.T) {
	ov := overlapFixture(t)
	want, ckpts := runCollect(t, ov, OverlapRun{MinOverlap: 500, CheckpointEvery: 8}, 2)
	for i := range ckpts {
		got, _ := runCollect(t, ov, OverlapRun{MinOverlap: 500, Resume: &ckpts[i]}, 2)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("resume at next_read=%d: overlaps differ from uninterrupted run", ckpts[i].NextRead)
		}
	}

	n := ov.NumReads()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *OverlapCheckpoint
	_, _, err := ov.run(ctx, OverlapRun{
		MinOverlap: 500,
		Progress: func(done, total int) {
			if done == total/2 {
				cancel()
			}
		},
		Save: func(c OverlapCheckpoint) error {
			last = &c
			return nil
		},
	}, 2)
	if err == nil {
		t.Fatal("cancelled pass returned no error")
	}
	if last == nil || last.NextRead < n/2 || last.NextRead >= n {
		t.Fatalf("cancellation checkpoint %+v, want next_read in [%d, %d)", last, n/2, n)
	}
	got, _ := runCollect(t, ov, OverlapRun{MinOverlap: 500, Resume: last}, 2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cancel at next_read=%d then resume: overlaps differ from uninterrupted run", last.NextRead)
	}
}

// filterAll runs the overlap pass's filter phase over every read.
func filterAll(t *testing.T, ov *Overlapper) [][2][]dsoft.Candidate {
	t.Helper()
	cands := make([][2][]dsoft.Candidate, ov.NumReads())
	for q := range cands {
		cands[q] = ov.filterRead(ov.darwin, 0, q).cands
	}
	return cands
}

// candidateSides maps each (pair, orientation) key to the set of read
// ids holding a candidate for it.
func candidateSides(ov *Overlapper, cands [][2][]dsoft.Candidate) map[overlapKey]map[int]bool {
	sides := map[overlapKey]map[int]bool{}
	for q := range cands {
		for s, cs := range cands[q] {
			for _, c := range cs {
				tr := ov.readAt(c.RefPos)
				k := overlapKey{min(q, tr), max(q, tr), s == 1}
				if sides[k] == nil {
					sides[k] = map[int]bool{}
				}
				sides[k][q] = true
			}
		}
	}
	return sides
}

// TestOverlapPairOnce: after ownership, each (pair, orientation) key
// keeps candidates on exactly one side — the lower id when it had any,
// else the higher — no key is lost, and every reported overlap was
// found by its key's owner.
func TestOverlapPairOnce(t *testing.T) {
	ov := overlapFixture(t)
	cands := filterAll(t, ov)
	before := candidateSides(ov, cands)
	claimOwned(cands, ov.readAt)
	after := candidateSides(ov, cands)
	if len(after) != len(before) {
		t.Fatalf("%d keys before ownership, %d after", len(before), len(after))
	}
	both, higherOnly := 0, 0
	for k, sides := range before {
		want := k.a
		if !sides[k.a] {
			want = k.b
			higherOnly++
		} else if sides[k.b] {
			both++
		}
		if got := after[k]; len(got) != 1 || !got[want] {
			t.Errorf("key %+v: candidates on %v after ownership, want only read %d", k, got, want)
		}
	}
	if both == 0 || higherOnly == 0 {
		t.Fatalf("fixture: %d keys seen from both sides, %d from the higher id only", both, higherOnly)
	}

	overlaps, _, err := ov.Run(context.Background(), OverlapRun{MinOverlap: 500})
	if err != nil {
		t.Fatal(err)
	}
	fromHigher := 0
	for i := range overlaps {
		o := &overlaps[i]
		k := keyOf(o)
		if sides := after[k]; !sides[o.Query] || len(sides) != 1 {
			t.Errorf("overlap %+v not found by its key's owner %v", o, sides)
		}
		if o.Query == k.b {
			fromHigher++
		}
	}
	if fromHigher == 0 {
		t.Error("no overlap was extended from a higher-id owner")
	}
}

// TestClaimOwnedHigherSideOnly: a key whose only candidates sit on the
// higher-id read stays with that read; a key seen from both sides goes
// to the lower id.
func TestClaimOwnedHigherSideOnly(t *testing.T) {
	// Three reads of 100 bases at offsets 0, 100, 200.
	offsets := []int{0, 100, 200}
	readAt := func(p int) int { return p / 100 }
	cand := func(read int) dsoft.Candidate { return dsoft.Candidate{RefPos: offsets[read] + 10} }
	cands := make([][2][]dsoft.Candidate, 3)
	cands[0][0] = []dsoft.Candidate{cand(1)}          // (0,1,fwd) from 0
	cands[1][0] = []dsoft.Candidate{cand(0), cand(2)} // (0,1,fwd) from 1, (1,2,fwd) from 1
	cands[2][1] = []dsoft.Candidate{cand(0), cand(0)} // (0,2,rev) from 2 only
	cands[2][0] = []dsoft.Candidate{cand(1)}          // (1,2,fwd) from 2
	claimOwned(cands, readAt)
	want := make([][2][]dsoft.Candidate, 3)
	want[0][0] = []dsoft.Candidate{cand(1)}
	want[1][0] = []dsoft.Candidate{cand(2)}
	want[2][1] = []dsoft.Candidate{cand(0), cand(0)}
	want[2][0] = []dsoft.Candidate{}
	for q := range want {
		for s := range want[q] {
			if len(cands[q][s]) != len(want[q][s]) || (len(want[q][s]) > 0 && !reflect.DeepEqual(cands[q][s], want[q][s])) {
				t.Errorf("read %d strand %d kept %v, want %v", q, s, cands[q][s], want[q][s])
			}
		}
	}
}
