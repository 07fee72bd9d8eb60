package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/obs"
	"darwin/internal/readsim"
)

// Mapping inputs, shared by map_batch and serve_map so the two differ
// only in the path the reads take.
const (
	mapGenomeLen = 4_000_000
	mapReadLen   = 3000
	// poolReads is the read pool every mapping workload cycles through;
	// checks and accuracy are computed over its distinct reads. Per-read
	// cost is heavy-tailed (a few reads draw many candidates), so the
	// pool is large enough that its mean cost varies little by seed.
	poolReads = 1024
	// jobReads is the read set whose end-to-end time is job_s: one
	// darwin-sized job, a quarter of the pool.
	jobReads = 256
	// mapChunk is the reads per library Map call in map_batch. On a
	// shared host each CPU runs fast or up to ~2x slower for seconds at
	// a time, independently of the others. Map's workers take reads as
	// they free up, so a call's throughput is the sum of its CPUs'
	// speeds, less the idle tail while the slowest worker finishes its
	// last read; at 64 reads a call that tail is a small share.
	mapChunk = 64
)

// mapInputs is one seed's reference and read pool.
type mapInputs struct {
	cfg   core.Config
	recs  []dna.Record
	reads []readsim.Read
	seqs  []dna.Seq
}

// makeMapInputs generates the reference and read pool for a seed, with
// the engine configuration at the mapping CLIs' defaults.
func makeMapInputs(seed int64) (*mapInputs, error) {
	g, err := genome.Generate(genome.Config{Length: mapGenomeLen, GC: 0.45, Seed: seed})
	if err != nil {
		return nil, err
	}
	reads, err := readsim.SimulateN(g.Seq, poolReads, readsim.Config{
		Profile: readsim.PacBio, MeanLen: mapReadLen, LenSpread: 0.1, Seed: seed + 7919,
	})
	if err != nil {
		return nil, err
	}
	in := &mapInputs{
		cfg:   core.DefaultConfig(12, 750, 24),
		recs:  []dna.Record{{Name: "chr1", Seq: g.Seq}},
		reads: reads,
		seqs:  make([]dna.Seq, len(reads)),
	}
	for i, r := range reads {
		in.seqs[i] = r.Seq
	}
	return in, nil
}

// nproc is the load parallelism: one client or mapping worker per CPU.
func nproc() int { return runtime.NumCPU() }

// readOutcome is what one pool read mapped to: its best alignment's
// reference interval, and a fingerprint every later sighting of the
// read must reproduce.
type readOutcome struct {
	mapped     bool
	start, end int
	key        string
}

// outcomes accumulates per-read outcomes over a load phase and checks
// that a read maps the same way every time it is seen.
type outcomes struct {
	reads []readsim.Read
	seen  map[int]readOutcome
}

func newOutcomes(reads []readsim.Read) *outcomes {
	return &outcomes{reads: reads, seen: make(map[int]readOutcome)}
}

// add records read i's outcome; it fails if the read mapped
// differently before.
func (o *outcomes) add(i int, got readOutcome) error {
	prev, ok := o.seen[i]
	if !ok {
		o.seen[i] = got
		return nil
	}
	if prev.key != got.key {
		return fmt.Errorf("read %s mapped differently on repeat: %q then %q", o.reads[i].Name, prev.key, got.key)
	}
	return nil
}

// accuracy returns mapped_correct_frac and the N50 of best-alignment
// reference spans over the distinct reads seen.
func (o *outcomes) accuracy() (float64, int) {
	var correct int
	var spans []int
	for i, oc := range o.seen {
		if !oc.mapped {
			continue
		}
		spans = append(spans, oc.end-oc.start)
		t := o.reads[i]
		if oc.start < t.RefEnd && t.RefStart < oc.end {
			correct++
		}
	}
	if len(o.seen) == 0 {
		return 0, 0
	}
	return float64(correct) / float64(len(o.seen)), n50(spans)
}

// alignmentOutcome summarizes a library result for read checks.
func alignmentOutcome(alns []core.ReadAlignment) readOutcome {
	b := core.Best(alns)
	if b == nil {
		return readOutcome{key: "unmapped"}
	}
	r := b.Result
	return readOutcome{
		mapped: true, start: r.RefStart, end: r.RefEnd,
		key: fmt.Sprintf("%d:%d-%d:%v:%d:%s", r.Score, r.RefStart, r.RefEnd, b.Reverse, len(alns), r.Cigar.String()),
	}
}

// mapBatch is the library path: core.New over the reference, then
// Map with one worker per CPU over chunks of the read pool.
type mapBatch struct {
	in  *mapInputs
	eng *core.Darwin
}

func (w *mapBatch) prepare(o options) error {
	in, err := makeMapInputs(o.seed)
	w.in = in
	return err
}

func (w *mapBatch) setup() (time.Duration, error) {
	w.eng = nil
	runtime.GC()
	start := time.Now()
	eng, err := core.New(w.in.recs[0].Seq, w.in.cfg)
	d := time.Since(start)
	w.eng = eng
	return d, err
}

func (w *mapBatch) load(ctx context.Context, d time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{lanes: 1, tailQ: 0.9, extra: map[string]float64{"index_bytes": float64(w.eng.Table().Bytes())}}
	oc := newOutcomes(w.in.reads)
	start := time.Now()
	for job := 0; time.Since(start) < d; job++ {
		j0 := time.Now()
		for c := 0; c < jobReads/mapChunk; c++ {
			first := (job*jobReads + c*mapChunk) % poolReads
			if err := w.mapChunk(ctx, first, ph, oc, rec); err != nil {
				return nil, err
			}
		}
		ph.passes = append(ph.passes, time.Since(j0))
	}
	ph.wall = time.Since(start)
	ph.accuracy, ph.n50 = oc.accuracy()
	if ph.accuracy < minMappedCorrect && ph.checkErr == nil {
		ph.checkErr = fmt.Errorf("mapped_correct_frac %.3f below %.2f", ph.accuracy, minMappedCorrect)
	}
	return ph, nil
}

// mapChunk maps the mapChunk pool reads starting at first in one Map
// call and records what it returned. On a traced run the call's span
// rides in the context, so the engine hangs its core.map tree off it.
func (w *mapBatch) mapChunk(ctx context.Context, first int, ph *phase, oc *outcomes, rec *recorder) error {
	sp := rec.start(fmt.Sprintf("map-%d", ph.attempted), "core.Map")
	t0 := time.Now()
	res, err := w.eng.Map(obs.ContextWithSpan(ctx, sp), w.in.seqs[first:first+mapChunk], core.WithWorkers(nproc()))
	lat := time.Since(t0)
	sp.End()
	if err != nil {
		return err
	}
	ph.attempted++
	ph.units = append(ph.units, lat)
	if sp != nil {
		tree := sp.Snapshot()
		if cm := tree.Find("core.map"); cm != nil {
			ph.calls = append(ph.calls, tracedCall{wall: lat, program: *cm})
		}
	}
	var unitErr error
	for j, r := range res {
		if r.Err != nil {
			unitErr = fmt.Errorf("read %s: %w", w.in.reads[first+j].Name, r.Err)
			continue
		}
		got := alignmentOutcome(r.Alignments)
		if err := oc.add(first+j, got); err != nil {
			unitErr = err
			continue
		}
		ph.reads++
		if got.mapped {
			ph.useful++
		}
	}
	if unitErr != nil {
		ph.failed++
		if ph.checkErr == nil {
			ph.checkErr = unitErr
		}
	}
	return nil
}

func (w *mapBatch) close() {}

// minMappedCorrect is the share of pool reads that must map over their
// simulated origin; PacBio-profile reads against a repeat-free
// synthetic genome map almost all of the time.
const minMappedCorrect = 0.9
