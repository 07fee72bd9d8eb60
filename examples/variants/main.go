// Variant-calling example: the personalized-medicine use case the
// paper's introduction motivates. A sample genome is derived from the
// reference with known SNPs and small indels, sequenced with noisy
// PacBio-profile reads, mapped back with the Darwin engine, and
// variants are called by pileup majority vote — then scored against
// the planted truth.
//
// Run with: go run ./examples/variants
package main

import (
	"context"
	"fmt"
	"log"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/readsim"
	"darwin/internal/varcall"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const genomeLen = 80_000
	g, err := genome.Generate(genome.Config{Length: genomeLen, GC: 0.41, Seed: 51})
	if err != nil {
		return err
	}
	sample, truth, err := genome.ApplyVariants(g.Seq, genome.VariantConfig{
		SNPRate: 0.0015, SmallIndelRate: 0.0003, Seed: 52,
	})
	if err != nil {
		return err
	}
	reads, err := readsim.Simulate(sample, readsim.Config{
		Profile: readsim.PacBio, MeanLen: 4000, Coverage: 15, Seed: 53,
	})
	if err != nil {
		return err
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	fmt.Printf("Reference %d bp; sample carries %d variants; %d reads at 15× (15%% error)\n\n",
		genomeLen, len(truth), len(reads))

	calls, err := varcall.CallContext(context.Background(), g.Seq, seqs, varcall.DefaultConfig(core.DefaultConfig(11, 700, 20)))
	if err != nil {
		return err
	}

	// Score SNP calls exactly; indels within ±5 bp.
	truthSNP := map[int]string{}
	var truthIndels []genome.Variant
	for _, v := range truth {
		if v.Kind == "snp" {
			truthSNP[v.RefPos] = ""
		} else {
			truthIndels = append(truthIndels, v)
		}
	}
	var tp, fp int
	for _, c := range calls {
		if c.Kind == varcall.SNP {
			if _, ok := truthSNP[c.Pos]; ok {
				tp++
			} else {
				fp++
			}
		}
	}
	fmt.Printf("Called %d variants (%d SNP calls: %d true, %d false; %d true SNPs planted)\n",
		len(calls), tp+fp, tp, fp, len(truthSNP))
	indelHit := 0
	for _, v := range truthIndels {
		for _, c := range calls {
			if c.Kind != varcall.SNP && c.Pos >= v.RefPos-5 && c.Pos <= v.RefPos+v.Len+5 {
				indelHit++
				break
			}
		}
	}
	fmt.Printf("Indels recovered: %d / %d\n\n", indelHit, len(truthIndels))

	fmt.Println("First calls:")
	for i, c := range calls {
		if i >= 8 {
			break
		}
		switch c.Kind {
		case varcall.SNP:
			fmt.Printf("  %6d  SNP  %s->%s  depth %d support %d\n", c.Pos, c.Ref, c.Alt, c.Depth, c.Support)
		case varcall.Ins:
			fmt.Printf("  %6d  INS  +%s  depth %d support %d\n", c.Pos, c.Alt, c.Depth, c.Support)
		case varcall.Del:
			fmt.Printf("  %6d  DEL  %s  depth %d support %d\n", c.Pos, c.Ref, c.Depth, c.Support)
		}
	}
	return nil
}
