package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"darwin/internal/dna"
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
// it in both orientations.
type Overlapper struct {
	darwin  *Darwin
	reads   []dna.Seq
	offsets []int // start of each read in the concatenated reference
}

// OverlapStats aggregates the pipeline statistics of an overlap run.
type OverlapStats struct {
	// Map aggregates MapStats across all reads.
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
// ctx is checked between reads, so cancellation latency is one read's
// pass; on cancellation Run returns the overlaps found so far together
// with ctx.Err(). Stats cover only the reads processed by this call: a
// resumed pass reports the remaining work, not the pre-checkpoint
// history.
func (o *Overlapper) Run(ctx context.Context, r OverlapRun) ([]Overlap, OverlapStats, error) {
	stats := OverlapStats{TableBuildTime: o.darwin.TableBuildTime}
	var ctxErr error
	best := map[overlapKey]Overlap{}
	startRead := 0
	if r.Resume != nil {
		if r.Resume.NextRead > 0 {
			startRead = r.Resume.NextRead
		}
		for i := range r.Resume.Overlaps {
			ov := r.Resume.Overlaps[i]
			k := keyOf(&ov)
			if cur, ok := best[k]; !ok || ov.Score > cur.Score {
				best[k] = ov
			}
		}
	}
	minOverlap := r.MinOverlap
	snapshot := func(nextRead int) OverlapCheckpoint {
		return OverlapCheckpoint{NextRead: nextRead, Overlaps: collectOverlaps(best)}
	}
	for q := startRead; q < len(o.reads); q++ {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			// A final checkpoint at the cancellation boundary: read q has
			// not been processed, so the interrupted pass resumes there.
			if r.Save != nil {
				if serr := r.Save(snapshot(q)); serr != nil {
					ctxErr = serr
				}
			}
			break
		}
		endSpan := obs.Trace.Start("overlap.read")
		alns, st := o.darwin.mapStrands(o.reads[q], o.readWindow, q)
		stats.Map.add(st)
		for _, a := range alns {
			target := o.readAt(a.Result.RefStart)
			tStart := a.Result.RefStart - o.offsets[target]
			tEnd := min(a.Result.RefEnd-o.offsets[target], len(o.reads[target]))
			if tEnd-tStart < minOverlap {
				continue
			}
			ov := Overlap{
				Target:      target,
				Query:       q,
				QueryRev:    a.Reverse,
				TargetStart: tStart,
				TargetEnd:   tEnd,
				QueryStart:  a.Result.QueryStart,
				QueryEnd:    a.Result.QueryEnd,
				Score:       a.Result.Score,
			}
			k := keyOf(&ov)
			if cur, ok := best[k]; !ok || ov.Score > cur.Score {
				best[k] = ov
			}
		}
		endSpan()
		cOverlapReads.Inc()
		if r.Progress != nil {
			r.Progress(q+1, len(o.reads))
		}
		if r.Save != nil && r.CheckpointEvery > 0 && (q+1)%r.CheckpointEvery == 0 && q+1 < len(o.reads) {
			if serr := r.Save(snapshot(q + 1)); serr != nil {
				return collectOverlaps(best), stats, serr
			}
		}
	}
	out := collectOverlaps(best)
	cOverlapsOut.Add(int64(len(out)))
	return out, stats, ctxErr
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
