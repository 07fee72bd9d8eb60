//go:build !race

// The genome-scale budget test: a 32 Mbp reference mapped under a
// residency budget of ~¼ the full index, asserting correctness, the
// budget (via the obs gauge, per the subsystem's acceptance criteria),
// and throughput within 2× of the monolithic engine. Excluded from
// race builds: the race detector's slowdown makes the throughput
// comparison meaningless and the suite too slow.

package shard

import (
	"context"
	"reflect"
	"testing"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/obs"
	"darwin/internal/readsim"
)

func TestBudgetedGenomeScaleMapping(t *testing.T) {
	if testing.Short() {
		t.Skip("32 Mbp genome build in -short mode")
	}
	g, err := genome.Generate(genome.Config{
		Length: 32_000_000, GC: 0.41, RepeatFraction: 0.25, RepeatFamilies: 12,
		RepeatUnitLen: 300, RepeatDivergence: 0.12, TandemFraction: 0.08, Seed: 808,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Seq
	// k=14 (the paper's PacBio reference-guided setting) uses the sparse
	// table layout, whose size scales with the extent — the regime where
	// sharding actually bounds memory. Dense small-k tables carry a
	// 4^k-entry pointer array per shard regardless of extent.
	cfg := core.DefaultConfig(14, 600, 24)

	reads, err := readsim.SimulateN(ref, 48, readsim.Config{Profile: readsim.PacBio, MeanLen: 3000, Seed: 809})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]dna.Seq, len(reads))
	for i := range reads {
		queries[i] = reads[i].Seq
	}
	workers := 4

	// Both engines are timed end-to-end (index construction + Map):
	// the sharded engine builds its tables lazily inside Map, so a
	// map-only timer would charge index construction to one side only.
	start := time.Now()
	mono, err := core.New(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mono.Map(context.Background(), queries, core.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	monoDur := time.Since(start)
	fullBytes := mono.Table().Bytes()
	budget := fullBytes / 4

	start = time.Now()
	sm, err := New(ref, cfg, Config{Shards: 16, MaxResidentBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sm.Map(context.Background(), queries, core.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	shardDur := time.Since(start)

	if !reflect.DeepEqual(alignmentsOf(got), alignmentsOf(want)) {
		t.Fatal("budgeted sharded mapping diverged from monolithic engine")
	}
	mapped := 0
	for _, r := range got {
		if len(r.Alignments) > 0 {
			mapped++
		}
	}
	if mapped < len(reads)*3/4 {
		t.Fatalf("only %d/%d reads mapped; test parameters too weak to mean anything", mapped, len(reads))
	}

	// The budget must hold at the high-water mark, observed through the
	// obs gauge the serving layer exports.
	peak := obs.Default.Gauge("shard/resident_bytes_peak").Value()
	if peak <= 0 || peak > budget {
		t.Errorf("peak resident bytes %d outside (0, budget %d]", peak, budget)
	}
	if setPeak := sm.Set().PeakResidentBytes(); setPeak != peak {
		t.Errorf("set peak %d != gauge peak %d", setPeak, peak)
	}
	if fullBytes/int64(len(sm.Set().Geometry().Parts)) > budget {
		t.Fatalf("test geometry broken: one shard (%d bytes est.) exceeds budget %d", fullBytes/16, budget)
	}

	// Throughput: ≥ 0.5× the monolithic engine end-to-end.
	if shardDur > 2*monoDur {
		t.Errorf("sharded index+map took %v vs monolithic %v (> 2×)", shardDur, monoDur)
	}
	t.Logf("32 Mbp: full index %d MiB, budget %d MiB, peak %d MiB; mono %v, sharded %v (%.2fx)",
		fullBytes>>20, budget>>20, peak>>20, monoDur, shardDur, float64(shardDur)/float64(monoDur))
}
