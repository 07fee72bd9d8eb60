package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/obs"
)

// Overlap-step observability: overlap/reads_done advances once per
// queried read (both strands), which is what drives -progress in
// cmd/darwin-overlap; filter/align time lands in the shared stage
// timers via the dsoft/gact packages.
var (
	cOverlapReads = obs.Default.Counter("overlap/reads_done")
	cOverlapsOut  = obs.Default.Counter("overlap/overlaps_found")
)

// Overlap is a detected pairwise overlap between two reads in the
// de novo overlap step (Figure 6, right).
type Overlap struct {
	// Target is the read found in the concatenated reference; Query is
	// the read used as the D-SOFT/GACT query.
	Target, Query int
	// QueryRev is true if the reverse complement of the query read
	// produced the overlap.
	QueryRev bool
	// TargetStart, TargetEnd delimit the overlap on the target read.
	TargetStart, TargetEnd int
	// QueryStart, QueryEnd delimit the overlap on the query read (in
	// reverse-complement coordinates when QueryRev).
	QueryStart, QueryEnd int
	// Score is the GACT alignment score.
	Score int
}

// Pair returns the unordered read pair.
func (o *Overlap) Pair() (int, int) {
	if o.Target < o.Query {
		return o.Target, o.Query
	}
	return o.Query, o.Target
}

// Len returns the overlap length on the target read.
func (o *Overlap) Len() int { return o.TargetEnd - o.TargetStart }

// Overlapper runs the overlap step of de novo assembly: reads are
// concatenated (each padded with N to a whole number of D-SOFT bins,
// Section 5) to form the reference, and every read is queried against
// it in both orientations. Run spreads the pass over every core and
// extends each read pair once per orientation.
type Overlapper struct {
	darwin  *Darwin
	reads   []dna.Seq
	offsets []int // start of each read in the concatenated reference
}

// OverlapStats aggregates the pipeline statistics of an overlap run.
type OverlapStats struct {
	// Map aggregates MapStats across all reads. DSOFT, Candidates and
	// FiltrationTime count the filter over both sides of every pair
	// (every read, both strands); PassedHTile, Tiles, Cells,
	// FirstTileScores and AlignmentTime count only the extensions each
	// read owned, one per (pair, orientation) key with candidates.
	Map MapStats
	// TableBuildTime is the software-side seed-table construction time
	// (the dominant software cost in the paper's de novo accounting:
	// 370 of 385 seconds for C. elegans).
	TableBuildTime time.Duration
}

// NewOverlapper builds the concatenated reference and indexes it.
func NewOverlapper(reads []dna.Seq, cfg Config) (*Overlapper, error) {
	if len(reads) == 0 {
		return nil, fmt.Errorf("core: no reads to overlap")
	}
	B := cfg.BinSize
	if B <= 0 {
		return nil, fmt.Errorf("core: bin size must be positive")
	}
	total := 0
	for _, r := range reads {
		pad := B - len(r)%B
		total += len(r) + pad
	}
	ref := make(dna.Seq, 0, total)
	offsets := make([]int, len(reads))
	for i, r := range reads {
		offsets[i] = len(ref)
		ref = append(ref, r...)
		pad := B - len(r)%B
		for p := 0; p < pad; p++ {
			ref = append(ref, 'N')
		}
	}
	d, err := New(ref, cfg)
	if err != nil {
		return nil, err
	}
	return &Overlapper{darwin: d, reads: reads, offsets: offsets}, nil
}

// readAt returns the index of the read containing reference position p.
func (o *Overlapper) readAt(p int) int {
	i := sort.SearchInts(o.offsets, p+1) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// readWindow is the refWindow of the concatenated reference: the read
// containing refPos and its unpadded span. Clipping each GACT
// extension to it keeps N padding (which contributes nothing to
// scores, the hardware's Σext semantics) from bridging adjacent reads
// and misattributing the overlap.
func (o *Overlapper) readWindow(refPos int) (target, lo, hi int) {
	t := o.readAt(refPos)
	return t, o.offsets[t], o.offsets[t] + len(o.reads[t])
}

// OverlapCheckpoint is a resumable snapshot of an overlap pass taken
// at a read boundary: every read below NextRead has been queried (both
// strands) and Overlaps holds the best overlap per (pair, orientation)
// seen so far in canonical order. Because reads are processed in index
// order and deduplication keeps only the best-scoring overlap per key,
// resuming from a checkpoint yields output bit-identical to an
// uninterrupted run.
type OverlapCheckpoint struct {
	// NextRead is the first read index not yet processed.
	NextRead int
	// Overlaps is the deduplicated best-so-far set, in the same
	// canonical order Run returns.
	Overlaps []Overlap
}

// Done reports whether the checkpoint covers all n reads.
func (c *OverlapCheckpoint) Done(n int) bool { return c != nil && c.NextRead >= n }

// overlapKey identifies one deduplication slot: an unordered read pair
// in one relative orientation.
type overlapKey struct {
	a, b int
	rev  bool
}

func keyOf(ov *Overlap) overlapKey {
	lo, hi := ov.Pair()
	return overlapKey{lo, hi, ov.QueryRev}
}

// OverlapRun configures one overlap pass: the reporting threshold plus
// the optional resume point, checkpoint cadence, and progress hook.
type OverlapRun struct {
	// MinOverlap is the minimum reported overlap length on the target
	// read.
	MinOverlap int
	// Resume, when non-nil, restarts the pass at Resume.NextRead with
	// the deduplication state rebuilt from Resume.Overlaps.
	Resume *OverlapCheckpoint
	// CheckpointEvery is how many reads between Save calls (0 disables
	// periodic saves; a cancellation save still fires when Save is set).
	CheckpointEvery int
	// Save receives checkpoints. A non-nil return aborts the pass with
	// that error; best-effort checkpointing swallows errors inside the
	// callback.
	Save func(OverlapCheckpoint) error
	// Progress, when non-nil, is called after each read completes with
	// the cumulative count (including reads skipped via Resume).
	Progress func(done, total int)
}

// Run is the overlap pass: it queries every read (both strands)
// against the concatenated reference and returns the deduplicated
// overlaps of at least r.MinOverlap bases, in canonical order. Each
// GACT extension is clipped to the read its candidate falls in (see
// readWindow).
//
// The pass has two phases, both spread over one engine clone per CPU:
//
//   - Filter: D-SOFT runs on every read, both strands, and each
//     (pair, orientation) key is claimed by one read — the lower id if
//     it has any candidate for the key, else the higher id.
//   - Extend: each read runs GACT on the candidates it claimed only,
//     so a key is extended from one side, not both.
//
// Extension results merge into the deduplication map on the calling
// goroutine in read-index order, and Progress, periodic saves and the
// cancellation save all fire from that merge, so overlaps and every
// checkpoint are identical for any worker count. A resumed pass
// recomputes the filter phase over all reads, so ownership — and the
// output — match an uninterrupted run.
//
// ctx is checked before each read is handed to a worker; reads already
// in flight complete. On cancellation Run returns the overlaps merged
// so far together with ctx.Err(). Stats cover the work done by this
// call: the filter over every read, and the extensions of the reads it
// merged (a resumed pass does not count the pre-checkpoint
// extensions).
func (o *Overlapper) Run(ctx context.Context, r OverlapRun) ([]Overlap, OverlapStats, error) {
	return o.run(ctx, r, runtime.NumCPU())
}

// run is Run on the given number of workers.
func (o *Overlapper) run(ctx context.Context, r OverlapRun, workers int) ([]Overlap, OverlapStats, error) {
	stats := OverlapStats{TableBuildTime: o.darwin.TableBuildTime}
	best := map[overlapKey]Overlap{}
	startRead := 0
	if r.Resume != nil {
		if r.Resume.NextRead > 0 {
			startRead = r.Resume.NextRead
		}
		for i := range r.Resume.Overlaps {
			mergeBest(best, r.Resume.Overlaps[i])
		}
	}
	n := len(o.reads)
	snapshot := func(nextRead int) OverlapCheckpoint {
		return OverlapCheckpoint{NextRead: nextRead, Overlaps: collectOverlaps(best)}
	}
	// cancelled ends an interrupted pass with a final checkpoint at the
	// boundary: read next has not been merged, so the pass resumes there.
	cancelled := func(next int) ([]Overlap, OverlapStats, error) {
		err := ctx.Err()
		if r.Save != nil {
			if serr := r.Save(snapshot(next)); serr != nil {
				err = serr
			}
		}
		return collectOverlaps(best), stats, err
	}
	workers = min(workers, n)
	engines, err := o.darwin.clones(workers)
	if err != nil {
		return nil, stats, err
	}
	gWorkers.Set(int64(workers))

	// Filter phase: every read, including those a resume skips, since
	// ownership depends on both sides of each pair.
	cands := make([][2][]dsoft.Candidate, n)
	filter := func(tid, q int) filteredRead { return o.filterRead(engines[tid-1], tid, q) }
	filtered, _ := runOrdered(ctx, workers, 0, n, filter, func(q int, f filteredRead) error {
		cands[q] = f.cands
		stats.Map.add(f.stats)
		return nil
	})
	if filtered < n {
		return cancelled(startRead)
	}
	claimOwned(cands, o.readAt)

	// Extend phase, merged in read order.
	extend := func(tid, q int) extendedRead {
		return o.extendRead(engines[tid-1], tid, q, cands[q], r.MinOverlap)
	}
	next, serr := runOrdered(ctx, workers, startRead, n, extend, func(q int, x extendedRead) error {
		stats.Map.add(x.stats)
		for _, ov := range x.overlaps {
			mergeBest(best, ov)
		}
		cOverlapReads.Inc()
		if r.Progress != nil {
			r.Progress(q+1, n)
		}
		if r.Save != nil && r.CheckpointEvery > 0 && (q+1)%r.CheckpointEvery == 0 && q+1 < n {
			return r.Save(snapshot(q + 1))
		}
		return nil
	})
	if serr != nil {
		return collectOverlaps(best), stats, serr
	}
	if next < n {
		return cancelled(next)
	}
	out := collectOverlaps(best)
	cOverlapsOut.Add(int64(len(out)))
	return out, stats, nil
}

// mergeBest keeps ov if it beats the key's current overlap. The strict
// comparison keeps the first-seen overlap on a score tie, which is why
// overlaps must merge in a fixed (read-index) order.
func mergeBest(best map[overlapKey]Overlap, ov Overlap) {
	k := keyOf(&ov)
	if cur, ok := best[k]; !ok || ov.Score > cur.Score {
		best[k] = ov
	}
}

// filteredRead is one read's filter-phase output: per strand (forward,
// reverse), the candidates that fall inside another read.
type filteredRead struct {
	cands [2][]dsoft.Candidate
	stats MapStats
}

// filterRead runs D-SOFT on read q's two strands, dropping its trivial
// self-hits and hits in N padding, which are never extended.
func (o *Overlapper) filterRead(e *Darwin, tid, q int) filteredRead {
	defer obs.Trace.StartTID("overlap.filter", tid)()
	busy := time.Now()
	var f filteredRead
	for s := range f.cands {
		cands, st := e.filterStrand(e.strand(o.reads[q], s == 1))
		f.stats.add(st)
		for _, c := range cands {
			if t, _, hi := o.readWindow(c.RefPos); t != q && c.RefPos < hi {
				f.cands[s] = append(f.cands[s], c)
			}
		}
	}
	tWorkerBusy.Observe(time.Since(busy))
	return f
}

// claimOwned filters every read's candidates down to the ones it owns.
// A key (lower id, higher id, orientation) is owned by the lowest read
// id with a candidate for it: candidates for a key come only from its
// two reads, so that is the lower id when it has one, else the higher.
// Orientation is symmetric — the reverse complement of b aligning to a
// is the reverse complement of a aligning to b — so either side's
// extension finds the key's overlap.
func claimOwned(cands [][2][]dsoft.Candidate, readAt func(int) int) {
	owner := map[overlapKey]int{} // key → owning read id + 1
	key := func(q, s int, c dsoft.Candidate) overlapKey {
		t := readAt(c.RefPos)
		return overlapKey{min(q, t), max(q, t), s == 1}
	}
	for q := range cands {
		for s, cs := range cands[q] {
			for _, c := range cs {
				if k := key(q, s, c); owner[k] == 0 {
					owner[k] = q + 1
				}
			}
		}
	}
	for q := range cands {
		for s, cs := range cands[q] {
			kept := cs[:0]
			for _, c := range cs {
				if owner[key(q, s, c)] == q+1 {
					kept = append(kept, c)
				}
			}
			cands[q][s] = kept
		}
	}
}

// extendedRead is one read's extend-phase output.
type extendedRead struct {
	overlaps []Overlap
	stats    MapStats
}

// extendRead runs GACT from read q's owned candidates and converts the
// alignments into overlaps of at least minOverlap target bases.
func (o *Overlapper) extendRead(e *Darwin, tid, q int, cands [2][]dsoft.Candidate, minOverlap int) extendedRead {
	defer obs.Trace.StartTID("overlap.read", tid)()
	busy := time.Now()
	var x extendedRead
	for s, cs := range cands {
		if len(cs) == 0 {
			continue
		}
		alns := e.extendStrand(e.strand(o.reads[q], s == 1), s == 1, cs, o.readWindow, &x.stats)
		for _, a := range alns {
			target := o.readAt(a.Result.RefStart)
			tStart := a.Result.RefStart - o.offsets[target]
			tEnd := min(a.Result.RefEnd-o.offsets[target], len(o.reads[target]))
			if tEnd-tStart < minOverlap {
				continue
			}
			x.overlaps = append(x.overlaps, Overlap{
				Target:      target,
				Query:       q,
				QueryRev:    a.Reverse,
				TargetStart: tStart,
				TargetEnd:   tEnd,
				QueryStart:  a.Result.QueryStart,
				QueryEnd:    a.Result.QueryEnd,
				Score:       a.Result.Score,
			})
		}
	}
	tWorkerBusy.Observe(time.Since(busy))
	return x
}

// collectOverlaps flattens the deduplication map into the canonical
// output order: unordered pair ascending, forward orientation first.
// The map is keyed by (pair, orientation), so this order is total and
// the output is deterministic regardless of map iteration order.
func collectOverlaps(best map[overlapKey]Overlap) []Overlap {
	out := make([]Overlap, 0, len(best))
	for _, ov := range best {
		out = append(out, ov)
	}
	sort.Slice(out, func(a, b int) bool {
		pa1, pa2 := out[a].Pair()
		pb1, pb2 := out[b].Pair()
		if pa1 != pb1 {
			return pa1 < pb1
		}
		if pa2 != pb2 {
			return pa2 < pb2
		}
		return !out[a].QueryRev && out[b].QueryRev
	})
	return out
}

// NumReads returns the number of reads the overlapper was built over.
func (o *Overlapper) NumReads() int { return len(o.reads) }

// Reads returns the read set the overlapper indexes (shared, not a
// copy — callers must not mutate).
func (o *Overlapper) Reads() []dna.Seq { return o.reads }
