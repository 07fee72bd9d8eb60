package varcall

import (
	"context"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
)

// TestCallSNPs: plant known SNPs, sequence the sample at 15×, call
// against the reference, and check recall/precision.
func TestCallSNPs(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 60000, GC: 0.45, Seed: 181})
	if err != nil {
		t.Fatal(err)
	}
	sample, truth, err := genome.ApplyVariants(g.Seq, genome.VariantConfig{SNPRate: 0.002, Seed: 182})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(sample, readsim.Config{
		Profile: readsim.PacBio, MeanLen: 3000, Coverage: 15, Seed: 183,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	calls, err := CallContext(context.Background(), g.Seq, seqs, DefaultConfig(core.DefaultConfig(11, 600, 20)))
	if err != nil {
		t.Fatal(err)
	}

	truthSNP := map[int]bool{}
	for _, v := range truth {
		if v.Kind == "snp" {
			truthSNP[v.RefPos] = true
		}
	}
	if len(truthSNP) < 50 {
		t.Fatalf("test setup: only %d true SNPs", len(truthSNP))
	}
	tp, fp := 0, 0
	for _, c := range calls {
		if c.Kind != SNP {
			continue
		}
		if truthSNP[c.Pos] {
			tp++
		} else {
			fp++
		}
		if c.Support > c.Depth {
			t.Fatalf("support %d > depth %d", c.Support, c.Depth)
		}
	}
	recall := float64(tp) / float64(len(truthSNP))
	precision := 1.0
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	t.Logf("SNP recall %.2f (%d/%d), precision %.2f (%d FP)", recall, tp, len(truthSNP), precision, fp)
	if recall < 0.85 {
		t.Errorf("SNP recall %.2f, want ≥ 0.85", recall)
	}
	if precision < 0.85 {
		t.Errorf("SNP precision %.2f, want ≥ 0.85", precision)
	}
}

// TestCallIndels: small planted indels must be recovered within a few
// bases of their true position (alignment placement is ambiguous in
// homopolymers).
func TestCallIndels(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 40000, GC: 0.45, Seed: 184})
	if err != nil {
		t.Fatal(err)
	}
	sample, truth, err := genome.ApplyVariants(g.Seq, genome.VariantConfig{SmallIndelRate: 0.0008, Seed: 185})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(sample, readsim.Config{
		Profile: readsim.PacBio, MeanLen: 3000, Coverage: 15, Seed: 186,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	calls, err := CallContext(context.Background(), g.Seq, seqs, DefaultConfig(core.DefaultConfig(11, 600, 20)))
	if err != nil {
		t.Fatal(err)
	}
	var indelTruth []genome.Variant
	for _, v := range truth {
		if v.Kind == "ins" || v.Kind == "del" {
			indelTruth = append(indelTruth, v)
		}
	}
	if len(indelTruth) < 10 {
		t.Fatalf("test setup: only %d true indels", len(indelTruth))
	}
	recovered := 0
	for _, v := range indelTruth {
		for _, c := range calls {
			if c.Kind == SNP {
				continue
			}
			if c.Pos >= v.RefPos-5 && c.Pos <= v.RefPos+v.Len+5 {
				recovered++
				break
			}
		}
	}
	recall := float64(recovered) / float64(len(indelTruth))
	t.Logf("indel recall %.2f (%d/%d), %d total calls", recall, recovered, len(indelTruth), len(calls))
	if recall < 0.7 {
		t.Errorf("indel recall %.2f, want ≥ 0.7", recall)
	}
}

// TestNoVariantsNoCalls: sequencing the reference itself must produce
// (almost) no calls — read errors scatter below the majority
// threshold.
func TestNoVariantsNoCalls(t *testing.T) {
	g, err := genome.Generate(genome.Config{Length: 30000, GC: 0.45, Seed: 187})
	if err != nil {
		t.Fatal(err)
	}
	reads, err := readsim.Simulate(g.Seq, readsim.Config{
		Profile: readsim.PacBio, MeanLen: 3000, Coverage: 15, Seed: 188,
	})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	calls, err := CallContext(context.Background(), g.Seq, seqs, DefaultConfig(core.DefaultConfig(11, 600, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) > 5 {
		t.Errorf("%d calls on variant-free sample, want ≤ 5", len(calls))
	}
}

func TestCallErrors(t *testing.T) {
	if _, err := CallContext(context.Background(), nil, nil, DefaultConfig(core.DefaultConfig(11, 100, 10))); err == nil {
		t.Error("empty reference should error")
	}
	cfg := DefaultConfig(core.DefaultConfig(11, 100, 10))
	cfg.MinFrac = 0
	if _, err := CallContext(context.Background(), dna.NewSeq("ACGTACGTACGTACGT"), nil, cfg); err == nil {
		t.Error("MinFrac 0 should error")
	}
}
