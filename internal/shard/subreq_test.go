package shard

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"darwin/internal/core"
)

// TestScatterShardsMergeBitIdentity is the distributed analog of
// TestBoundaryEquivalence: splitting a batch into per-shard-group
// sub-requests (as the cluster router does across workers), shipping
// each ReadScatter through its JSON wire form, and recombining with
// MergeReadScatters must be bit-identical to the monolithic engine —
// alignments and work stats — including when MaxCandidates truncation
// fires, which is the case the global-merge ordering exists for.
func TestScatterShardsMergeBitIdentity(t *testing.T) {
	ref := testGenome(t, 120000, 201)
	for _, maxCand := range []int{0, 6} {
		cfg := smallConfig()
		cfg.MaxCandidates = maxCand
		mono, err := core.New(ref, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := New(ref, cfg, Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		reads := boundaryReads(t, ref, sm.Set().Geometry())
		want, err := mono.Map(context.Background(), reads, core.WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		// Three ways to carve 4 shards into disjoint worker-owned
		// groups; each group runs on its own clone, as on its own node.
		groupings := [][][]int{
			{{0}, {1}, {2}, {3}},
			{{0, 2}, {1, 3}},
			{{0, 1, 2, 3}},
		}
		for _, groups := range groupings {
			parts := make([][]ReadScatter, len(groups))
			for gi, g := range groups {
				worker, err := sm.Clone()
				if err != nil {
					t.Fatal(err)
				}
				rs, err := worker.ScatterShards(context.Background(), reads, g, 2)
				if err != nil {
					t.Fatalf("max=%d groups=%v: %v", maxCand, groups, err)
				}
				// Round-trip through the wire encoding so the test
				// covers exactly what crosses the network.
				raw, err := json.Marshal(rs)
				if err != nil {
					t.Fatal(err)
				}
				var decoded []ReadScatter
				if err := json.Unmarshal(raw, &decoded); err != nil {
					t.Fatal(err)
				}
				parts[gi] = decoded
			}
			for i := range reads {
				sub := make([]ReadScatter, len(groups))
				for gi := range groups {
					sub[gi] = parts[gi][i]
				}
				got, err := MergeReadScatters(cfg.MaxCandidates, sub)
				if err != nil {
					t.Fatalf("max=%d groups=%v read %d: %v", maxCand, groups, i, err)
				}
				if got.Err != nil {
					t.Fatalf("max=%d groups=%v read %d: %v", maxCand, groups, i, got.Err)
				}
				if !reflect.DeepEqual(got.Alignments, want[i].Alignments) {
					t.Errorf("max=%d groups=%v read %d: alignments diverge from monolithic engine\n got: %+v\nwant: %+v",
						maxCand, groups, i, got.Alignments, want[i].Alignments)
				}
				g, w := got.Stats, want[i].Stats
				if g.Candidates != w.Candidates || g.PassedHTile != w.PassedHTile ||
					g.Tiles != w.Tiles || g.Cells != w.Cells ||
					!reflect.DeepEqual(g.FirstTileScores, w.FirstTileScores) {
					t.Errorf("max=%d groups=%v read %d: merged stats diverge: got {cand %d pass %d tiles %d cells %d}, want {%d %d %d %d}",
						maxCand, groups, i, g.Candidates, g.PassedHTile, g.Tiles, g.Cells,
						w.Candidates, w.PassedHTile, w.Tiles, w.Cells)
				}
			}
		}
	}
}

// TestMergeReadScattersRejectsOverlap: feeding the same shard group's
// sub-response twice (a double-merge) must fail loudly, not silently
// double candidates past the truncation limit.
func TestMergeReadScattersRejectsOverlap(t *testing.T) {
	ref := testGenome(t, 60000, 77)
	cfg := smallConfig()
	sm, err := New(ref, cfg, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reads := boundaryReads(t, ref, sm.Set().Geometry())
	rs, err := sm.ScatterShards(context.Background(), reads[:1], []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs[0].Strand[0])+len(rs[0].Strand[1]) == 0 {
		t.Fatal("test needs a read with candidates")
	}
	if _, err := MergeReadScatters(cfg.MaxCandidates, []ReadScatter{rs[0], rs[0]}); err == nil {
		t.Fatal("duplicate sub-response merged without error")
	}
}

// TestScatterShardsValidation: out-of-range and repeated shard IDs are
// batch-level errors, and a read-level failure string poisons only the
// merge of that read.
func TestScatterShardsValidation(t *testing.T) {
	ref := testGenome(t, 60000, 78)
	cfg := smallConfig()
	sm, err := New(ref, cfg, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reads := boundaryReads(t, ref, sm.Set().Geometry())[:1]
	if _, err := sm.ScatterShards(context.Background(), reads, []int{2}, 1); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := sm.ScatterShards(context.Background(), reads, []int{0, 0}, 1); err == nil {
		t.Error("duplicate shard ID accepted")
	}
	res, err := MergeReadScatters(0, []ReadScatter{{Read: 3, Err: "boom"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Index != 3 {
		t.Errorf("poisoned read not surfaced: %+v", res)
	}
}
