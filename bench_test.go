// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per experiment, backed by
// internal/experiments in Quick mode), plus kernel micro-benchmarks
// for the compute primitives the paper's hardware accelerates and the
// design-choice ablations DESIGN.md calls out.
//
// Run with: go test -bench=. -benchmem
package darwin_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"darwin/internal/align"
	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/dsoftsim"
	"darwin/internal/experiments"
	"darwin/internal/fmindex"
	"darwin/internal/gact"
	"darwin/internal/gactsim"
	"darwin/internal/genome"
	"darwin/internal/hw"
	"darwin/internal/indexio"
	"darwin/internal/obs"
	"darwin/internal/readsim"
	"darwin/internal/seedtable"
	"darwin/internal/shard"
)

// benchExperiment runs one experiment per iteration and reports a few
// headline metrics.
func benchExperiment(b *testing.B, id string, metricKeys map[string]string) {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Options{Quick: true, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for key, unit := range metricKeys {
		if v, ok := last.Values[key]; ok {
			b.ReportMetric(v, unit)
		}
	}
	if testing.Verbose() {
		b.Logf("\n%s", last.Report)
	}
}

func BenchmarkTable1ErrorProfiles(b *testing.B) {
	benchExperiment(b, "table1", map[string]string{
		"PacBio/total": "pacbio_err", "ONT_1D/total": "ont1d_err",
	})
}

func BenchmarkTable2AreaPower(b *testing.B) {
	benchExperiment(b, "table2", map[string]string{
		"Total/area": "mm2", "Total/power": "W",
	})
}

func BenchmarkTable3DSOFTThroughput(b *testing.B) {
	benchExperiment(b, "table3", map[string]string{
		"model/k11": "k11_Kseeds/s", "model/k15": "k15_Kseeds/s",
	})
}

func BenchmarkTable4Overall(b *testing.B) {
	benchExperiment(b, "table4", map[string]string{
		"PacBio/speedup": "pacbio_speedup", "denovo/speedup": "denovo_speedup",
	})
}

func BenchmarkFig9aGACTOptimality(b *testing.B) {
	benchExperiment(b, "fig9a", map[string]string{
		"PacBio/T320_O128": "pacbio_opt_frac", "ONT_1D/T320_O128": "ont1d_opt_frac",
	})
}

func BenchmarkFig9bGACTArrayThroughput(b *testing.B) {
	benchExperiment(b, "fig9b", map[string]string{
		"T320_O128": "aligns/s",
	})
}

func BenchmarkFig10ThroughputVsLength(b *testing.B) {
	benchExperiment(b, "fig10", map[string]string{
		"speedup_vs_edlib/1000": "speedup_1k", "speedup_vs_edlib/2000": "speedup_2k",
	})
}

func BenchmarkFig11DSOFTTuning(b *testing.B) {
	benchExperiment(b, "fig11", nil)
}

func BenchmarkFig12FirstTileScores(b *testing.B) {
	benchExperiment(b, "fig12", map[string]string{
		"false_filtered_at_90": "false_filtered", "true_lost_at_90": "true_lost",
	})
}

func BenchmarkFig13Waterfall(b *testing.B) {
	benchExperiment(b, "fig13", map[string]string{
		"line1/total_ms": "graphmap_ms", "line6/total_ms": "darwin_ms",
	})
}

// BenchmarkCorePipeline measures the full software engine (D-SOFT +
// GACT read mapping) on a fixed synthetic workload and writes the obs
// run report to BENCH_core.json — the machine-readable trajectory
// point every perf PR diffs against its predecessor.
func BenchmarkCorePipeline(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 300_000, GC: 0.45, Seed: 81})
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.New(g.Seq, core.DefaultConfig(11, 600, 20))
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 16, readsim.Config{Profile: readsim.PacBio, MeanLen: 3000, Seed: 82})
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	run := obs.NewRun("bench_core")
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		results, err := engine.Map(context.Background(), seqs, core.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			cells += r.Stats.Cells
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(float64(len(seqs)*b.N)/b.Elapsed().Seconds(), "reads/s")
	if err := run.Report().WriteJSON("BENCH_core.json"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMapRead measures single-thread MapRead throughput — the
// end-to-end number the tile-kernel perf work is judged by — and
// writes the obs run report to BENCH_kernel.json (`make bench-kernel`),
// the kernel-path trajectory point scripts/benchdiff.sh diffs.
func BenchmarkMapRead(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 300_000, GC: 0.45, Seed: 81})
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.New(g.Seq, core.DefaultConfig(11, 600, 20))
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 16, readsim.Config{Profile: readsim.PacBio, MeanLen: 3000, Seed: 82})
	if err != nil {
		b.Fatal(err)
	}
	run := obs.NewRun("bench_kernel")
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		alns, st := engine.MapRead(reads[i%len(reads)].Seq)
		cells += st.Cells
		if len(alns) == 0 {
			b.Fatal("read did not map")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
	if err := run.Report().WriteJSON("BENCH_kernel.json"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMapReadTraced is BenchmarkMapRead with every read mapped
// under a live request span, the way darwind's serving path maps it:
// a root span in the context, a core.map/core.read tree growing under
// it, and the GACT engine recording per-extension attributes. Writes
// BENCH_kernel_traced.json; `make benchdiff-traced` gates the tracing
// overhead at 3% against BENCH_kernel.json.
func BenchmarkMapReadTraced(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 300_000, GC: 0.45, Seed: 81})
	if err != nil {
		b.Fatal(err)
	}
	engine, err := core.New(g.Seq, core.DefaultConfig(11, 600, 20))
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 16, readsim.Config{Profile: readsim.PacBio, MeanLen: 3000, Seed: 82})
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]dna.Seq, len(reads))
	for i, r := range reads {
		batches[i] = []dna.Seq{r.Seq}
	}
	run := obs.NewRun("bench_kernel_traced")
	b.ResetTimer()
	var cells int64
	for i := 0; i < b.N; i++ {
		span := obs.NewRequestSpan(obs.NewRequestID(), "bench POST /v1/map")
		ctx := obs.ContextWithSpan(context.Background(), span)
		res, err := engine.Map(ctx, batches[i%len(batches)], core.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		cells += res[0].Stats.Cells
		if len(res[0].Alignments) == 0 {
			b.Fatal("read did not map")
		}
		span.End()
	}
	b.StopTimer()
	b.ReportMetric(float64(cells)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
	if err := run.Report().WriteJSON("BENCH_kernel_traced.json"); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardMap measures the sharded scatter-gather engine in
// its bounded-memory regime: an 8-shard index with a residency budget
// of ~¼ the full seed table, so every Map batch rebuilds evicted
// shards (the worst case the shard-major batch order amortizes). It
// writes the obs run report to BENCH_shard.json (`make bench-shard`);
// scripts/benchdiff.sh diffs two such reports via the shared
// core/reads counter.
func BenchmarkShardMap(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 2_000_000, GC: 0.45, Seed: 83})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(13, 600, 22)
	// Size the budget from the monolithic table: ¼ of the full index.
	mono, err := core.New(g.Seq, cfg)
	if err != nil {
		b.Fatal(err)
	}
	budget := mono.Table().Bytes() / 4
	engine, err := shard.New(g.Seq, cfg, shard.Config{Shards: 8, MaxResidentBytes: budget})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 32, readsim.Config{Profile: readsim.PacBio, MeanLen: 3000, Seed: 84})
	if err != nil {
		b.Fatal(err)
	}
	seqs := make([]dna.Seq, len(reads))
	for i := range reads {
		seqs[i] = reads[i].Seq
	}
	run := obs.NewRun("bench_shard")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Map(context.Background(), seqs, core.WithWorkers(4)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(seqs)*b.N)/b.Elapsed().Seconds(), "reads/s")
	b.ReportMetric(float64(engine.Set().PeakResidentBytes())/float64(1<<20), "peak_MiB")
	b.ReportMetric(float64(budget)/float64(1<<20), "budget_MiB")
	if err := run.Report().WriteJSON("BENCH_shard.json"); err != nil {
		b.Fatal(err)
	}
}

// --- Kernel micro-benchmarks ---------------------------------------

func benchPair(b *testing.B, n int, profile readsim.Profile) (dna.Seq, dna.Seq) {
	b.Helper()
	g, err := genome.Generate(genome.Config{Length: n + 200, GC: 0.45, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: profile, MeanLen: n, Seed: 72})
	if err != nil {
		b.Fatal(err)
	}
	r := reads[0]
	region := g.Seq
	if r.Reverse {
		region = dna.RevComp(g.Seq)
	}
	return region, r.Seq
}

// BenchmarkGACTTile measures the compute-intensive Align step the
// GACT array accelerates: one 320×320 tile with traceback.
func BenchmarkGACTTile(b *testing.B) {
	ref, q := benchPair(b, 400, readsim.PacBio)
	sc := align.GACTEval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.AlignTile(ref[:320], q[:320], false, 192, &sc)
	}
	b.ReportMetric(float64(320*320), "cells/op")
}

// BenchmarkAlignTile measures the same 320×320 tile on the reusable
// allocation-free kernel (align.TileAligner) in its default auto mode
// — the production tile path, bitvector tier included;
// BenchmarkGACTTile above is the allocating full-LUT reference oracle
// it is compared against.
func BenchmarkAlignTile(b *testing.B) {
	ref, q := benchPair(b, 400, readsim.PacBio)
	sc := align.GACTEval()
	ta, err := align.NewTileAligner(&sc)
	if err != nil {
		b.Fatal(err)
	}
	ta.Preallocate(320)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ta.AlignTile(ref[:320], q[:320], false, 192)
	}
	b.ReportMetric(float64(320*320), "cells/op")
	b.ReportMetric(float64(320*320)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
}

// BenchmarkAlignTileBitvector contrasts the two kernel tiers on the
// workload the bitvector tier exists for: a high-identity (~3% error,
// HiFi/corrected-read class) 320×320 extension tile, where the
// provable band is narrow. The lut sub-benchmark is the full fill,
// the bitvector one is the Myers pass + affine rescore + banded fill.
// Both report Mcells/s as the *effective* rate over the geometric
// tile area (matching BenchmarkAlignTile), so the sub-benchmark ratio
// is the tier's end-to-end win; with KernelAuto the production path
// gets the bitvector rate whenever the divergence gate admits the
// tile.
func BenchmarkAlignTileBitvector(b *testing.B) {
	// An anchored ~3% tile: an extension tile continues an existing
	// alignment, so its corner offset is near zero (benchPair's whole
	// region would add a spurious leading shift that widens the band).
	hifi := readsim.Profile{Name: "HiFi", Sub: 0.005, Ins: 0.015, Del: 0.010}
	g, err := genome.Generate(genome.Config{Length: 600, GC: 0.45, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: hifi, MeanLen: 400, Seed: 72})
	if err != nil {
		b.Fatal(err)
	}
	r := reads[0]
	region, start := g.Seq, r.RefStart
	if r.Reverse {
		region = dna.RevComp(g.Seq)
		start = len(region) - r.RefEnd
	}
	start = min(start, len(region)-320)
	ref, q := region[start:], r.Seq
	sc := align.GACTEval()
	run := func(b *testing.B, mode align.KernelMode) *align.TileAligner {
		ta, err := align.NewTileAligner(&sc)
		if err != nil {
			b.Fatal(err)
		}
		ta.Preallocate(320)
		ta.SetKernel(mode)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ta.AlignTile(ref[:320], q[:320], false, 192)
		}
		b.StopTimer()
		b.ReportMetric(float64(320*320), "cells/op")
		b.ReportMetric(float64(320*320)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
		return ta
	}
	b.Run("lut", func(b *testing.B) { run(b, align.KernelLUT) })
	b.Run("bitvector", func(b *testing.B) {
		ta := run(b, align.KernelBitvector)
		ks := ta.KernelStats()
		if ks.BitvectorTiles != int64(b.N) {
			b.Fatalf("bitvector tier ran %d of %d tiles: %+v", ks.BitvectorTiles, b.N, ks)
		}
		b.ReportMetric(float64(ks.BitvectorCells)/float64(b.N), "filled_cells/op")
	})
}

// BenchmarkGACTExtend10k measures a full 10 kbp GACT alignment
// (Fig. 10's software series at its longest point).
func BenchmarkGACTExtend10k(b *testing.B) {
	ref, q := benchPair(b, 10000, readsim.PacBio)
	cfg := gact.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := gact.Extend(ref, q, 0, 0, &cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMyers10k measures the Edlib-class baseline on the same
// pairing (quadratic bit-vector).
func BenchmarkMyers10k(b *testing.B) {
	ref, q := benchPair(b, 10000, readsim.PacBio)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.EditDistance(ref, q, align.EditGlobal); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmithWaterman2k measures the O(mn) oracle.
func BenchmarkSmithWaterman2k(b *testing.B) {
	ref, q := benchPair(b, 2000, readsim.PacBio)
	sc := align.GACTEval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.SmithWaterman(ref, q, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBandedGlobal measures the banded heuristic the baselines
// extend with.
func BenchmarkBandedGlobal(b *testing.B) {
	ref, q := benchPair(b, 2000, readsim.PacBio)
	sc := align.GACTEval()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := align.BandedGlobal(ref[:2000], q[:min(len(q), 2000)], 256, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSOFTQuery measures the software filter (the memory-bound
// stage Darwin's accelerator targets).
func BenchmarkDSOFTQuery(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 500_000, GC: 0.45, Seed: 73})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := seedtable.Build(g.Seq, 11, seedtable.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	filter, err := dsoft.New(tab, dsoft.Config{N: 1000, H: 24, BinSize: 128})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: readsim.PacBio, MeanLen: 10000, Seed: 74})
	if err != nil {
		b.Fatal(err)
	}
	q := reads[0].Seq
	b.ResetTimer()
	seeds := 0
	for i := 0; i < b.N; i++ {
		_, st := filter.Query(q)
		seeds += st.SeedsIssued
	}
	b.ReportMetric(float64(seeds)/b.Elapsed().Seconds()/1e3, "Kseeds/s")
}

// BenchmarkSeedTableVsFMIndex contrasts the two index structures of
// Section 3 (design ablation #4 in DESIGN.md): the sequential-hit seed
// position table vs FM-index backward search + locate.
func BenchmarkSeedTableVsFMIndex(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 300_000, GC: 0.45, Seed: 75})
	if err != nil {
		b.Fatal(err)
	}
	const k = 12
	tab, err := seedtable.Build(g.Seq, k, seedtable.Options{NoMask: true})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := fmindex.Build(g.Seq)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(76))
	queries := make([]dna.Seq, 256)
	for i := range queries {
		p := rng.Intn(len(g.Seq) - k)
		queries[i] = g.Seq[p : p+k].Clone()
	}
	b.Run("seedtable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab.LookupSeq(queries[i%len(queries)], 0)
		}
	})
	b.Run("fmindex", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx.Locate(queries[i%len(queries)], 64)
		}
	})
}

// BenchmarkSeedTableBuild measures index construction (the software
// cost dominating Darwin's de novo accounting).
func BenchmarkSeedTableBuild(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 1_000_000, GC: 0.45, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seedtable.Build(g.Seq, 12, seedtable.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(g.Seq)))
}

// BenchmarkGACTSimTile measures the cycle-level array simulator on
// one 320×320 tile (functional fidelity costs ~Npe× the software
// kernel; the ratio is the price of bit-faithful PE emulation).
func BenchmarkGACTSimTile(b *testing.B) {
	ref, q := benchPair(b, 400, readsim.PacBio)
	arr, err := gactsim.New(64, 2048, align.GACTEval())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles float64
	for i := 0; i < b.N; i++ {
		_, cyc, err := arr.AlignTile(ref[:320], q[:320], false, 192)
		if err != nil {
			b.Fatal(err)
		}
		cycles = float64(cyc.Total())
	}
	b.ReportMetric(cycles, "sim_cycles/tile")
}

// BenchmarkDSOFTSim measures the NoC/bank simulation throughput.
func BenchmarkDSOFTSim(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 200_000, GC: 0.45, Seed: 78})
	if err != nil {
		b.Fatal(err)
	}
	tab, err := seedtable.Build(g.Seq, 6, seedtable.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	filter, err := dsoft.New(tab, dsoft.Config{N: 1000, H: 24, BinSize: 128})
	if err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: readsim.ONT2D, MeanLen: 3000, Seed: 79})
	if err != nil {
		b.Fatal(err)
	}
	trace := filter.Trace(reads[0].Seq)
	b.ResetTimer()
	var upc float64
	for i := 0; i < b.N; i++ {
		res, err := dsoftsim.Simulate(trace, dsoftsim.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		upc = res.UpdatesPerCycle()
	}
	b.ReportMetric(upc, "updates/cycle")
}

// BenchmarkDarwinEstimator measures the hardware model itself (it
// must be negligible).
func BenchmarkDarwinEstimator(b *testing.B) {
	d := hw.NewDarwin()
	w := hw.Workload{SeedsPerRead: 1500, HitsPerSeed: 30, TilesPerRead: 120, TileT: 320, TileO: 128}
	for i := 0; i < b.N; i++ {
		d.Estimate(w)
	}
}

// BenchmarkIndexColdStart compares time-to-first-mapped-read for the
// two cold-start paths a darwin/darwind boot takes: parsing the
// reference FASTA and building the seed table, versus mapping a
// prebuilt .dwi index file (indexio.Open, which replaces both steps).
// The load sub-benchmark reports the measured speedup; the obs run
// report goes to BENCH_index.json (`make bench-index`) — the
// build-once/load-many trajectory point EXPERIMENTS.md records.
func BenchmarkIndexColdStart(b *testing.B) {
	g, err := genome.Generate(genome.Config{Length: 1_000_000, GC: 0.45, Seed: 85})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(12, 600, 24)
	recs := []dna.Record{{Name: "chr1", Seq: g.Seq}}
	dir := b.TempDir()
	refPath := filepath.Join(dir, "ref.fa")
	var fasta bytes.Buffer
	if err := dna.WriteFASTA(&fasta, recs); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(refPath, fasta.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "ref.fa.dwi")
	if _, err := indexio.WriteFile(path, recs, cfg, core.ShardSpec{}); err != nil {
		b.Fatal(err)
	}
	reads, err := readsim.SimulateN(g.Seq, 1, readsim.Config{Profile: readsim.PacBio, MeanLen: 1000, Seed: 86})
	if err != nil {
		b.Fatal(err)
	}
	query := reads[0].Seq

	run := obs.NewRun("bench_index")
	var buildNs float64
	b.Run("build_from_fasta", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(refPath)
			if err != nil {
				b.Fatal(err)
			}
			parsed, err := dna.ReadFASTA(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			eng, _, err := core.Open(core.OpenConfig{Records: parsed, Core: cfg})
			if err != nil {
				b.Fatal(err)
			}
			if alns, _ := eng.(*core.Darwin).MapRead(query); len(alns) == 0 {
				b.Fatal("read did not map")
			}
		}
		buildNs = float64(time.Since(start).Nanoseconds()) / float64(b.N)
		b.ReportMetric(buildNs/1e6, "first_read_ms")
	})
	b.Run("mmap_load", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			l, err := indexio.Open(path, cfg, core.ShardSpec{})
			if err != nil {
				b.Fatal(err)
			}
			if alns, _ := l.Mapper.(*core.Darwin).MapRead(query); len(alns) == 0 {
				b.Fatal("read did not map")
			}
			l.File.Close()
		}
		loadNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
		b.ReportMetric(loadNs/1e6, "first_read_ms")
		if buildNs > 0 && loadNs > 0 {
			b.ReportMetric(buildNs/loadNs, "cold_start_speedup")
		}
	})
	if err := run.Report().WriteJSON("BENCH_index.json"); err != nil {
		b.Fatal(err)
	}
}
