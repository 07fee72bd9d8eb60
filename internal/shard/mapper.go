package shard

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/gact"
	"darwin/internal/obs"
)

// Mapper-level observability. The core/* names are shared with the
// monolithic engine's registry entries on purpose: downstream tooling
// (benchdiff, run reports) reads core/reads as "reads mapped" without
// caring which engine did the mapping. Scatter/gather wall time is the
// shard-specific split on top of the stage/filter and stage/align
// timers the dsoft and gact packages record themselves.
var (
	cReads      = obs.Default.Counter("core/reads")
	cAlignments = obs.Default.Counter("core/alignments")
	cUnmapped   = obs.Default.Counter("core/unmapped")
	cReadPanics = obs.Default.Counter("core/read_panics")
	cReadExpiry = obs.Default.Counter("core/read_deadline_expired")
	hCandidates = obs.Default.Histogram("core/candidates_per_read", 0, 512, 64)
	tScatter    = obs.Default.Timer("shard/scatter")
	tGather     = obs.Default.Timer("shard/gather")
)

// gcand is a D-SOFT candidate lifted into global reference coordinates.
type gcand struct {
	RefPos   int
	QueryPos int
}

// workerState is one goroutine's mutable machinery: a D-SOFT filter
// rebound across shard tables (bin arrays sized once to the largest
// extent), a private GACT kernel, and scratch buffers.
type workerState struct {
	filter  *dsoft.Filter
	engine  *gact.Engine
	buf     []dsoft.Candidate
	filtDur time.Duration
}

// perRead accumulates one read's scatter output across shards.
type perRead struct {
	strand [2][]gcand // forward, reverse
	stats  core.MapStats
	// err poisons this read only: a panic in its scatter work (or an
	// injected per-read fault) fails the read, never the batch.
	err error
}

// ScatterMapper implements core.Mapper over a shard Set. Batch mapping
// is shard-major: the outer loop walks shards, so each shard's table is
// built at most once per batch no matter how small the residency
// budget, and reads are striped across workers within a shard. The
// gather phase then merges each read's core-owned candidates in global
// coordinates, reproduces the monolithic engine's candidate order and
// MaxCandidates truncation exactly, and GACT-extends against the full
// resident reference — making alignments bit-identical to core.Darwin.
//
// A ScatterMapper is not safe for concurrent use (its workers are
// private to a running call); use Clone for additional goroutines.
// Clones share the Set, so concurrent clones also share the residency
// budget.
type ScatterMapper struct {
	set     *Set
	cfg     core.Config
	dcfg    dsoft.Config
	gcfg    gact.Config
	workers []*workerState
}

// New builds a ScatterMapper over ref. The reference is partitioned
// and masked now; shard seed tables are built lazily during mapping.
func New(ref dna.Seq, cfg core.Config, scfg Config) (*ScatterMapper, error) {
	if len(ref) == 0 {
		return nil, fmt.Errorf("shard: empty reference")
	}
	stride := cfg.SeedStride
	if stride < 1 {
		stride = 1
	}
	g := cfg.GACT
	g.MinFirstTile = cfg.HTile
	cfg.GACT = g
	m := &ScatterMapper{
		cfg:  cfg,
		dcfg: dsoft.Config{N: cfg.SeedN, H: cfg.Threshold, BinSize: cfg.BinSize, Stride: stride},
		gcfg: cfg.GACT,
	}
	// Validate the kernel configuration up front, as core.New does, so
	// a bad config fails at construction rather than mid-batch.
	if _, err := gact.NewEngine(&m.gcfg); err != nil {
		return nil, fmt.Errorf("shard: configuring GACT: %w", err)
	}
	if m.dcfg.N <= 0 || m.dcfg.H <= 0 {
		return nil, fmt.Errorf("shard: D-SOFT needs positive N and h (got N=%d h=%d)", m.dcfg.N, m.dcfg.H)
	}
	set, err := NewSet(ref, cfg, scfg)
	if err != nil {
		return nil, err
	}
	m.set = set
	return m, nil
}

// FromSet builds a ScatterMapper over an existing Set — the
// persistent-index path, where the Set was constructed by
// NewSetPrebuilt around a mapped file's geometry and table loader.
// Kernel configuration is validated exactly as New does.
func FromSet(set *Set, cfg core.Config) (*ScatterMapper, error) {
	if set == nil {
		return nil, fmt.Errorf("shard: nil set")
	}
	stride := cfg.SeedStride
	if stride < 1 {
		stride = 1
	}
	g := cfg.GACT
	g.MinFirstTile = cfg.HTile
	cfg.GACT = g
	m := &ScatterMapper{
		set:  set,
		cfg:  cfg,
		dcfg: dsoft.Config{N: cfg.SeedN, H: cfg.Threshold, BinSize: cfg.BinSize, Stride: stride},
		gcfg: cfg.GACT,
	}
	if _, err := gact.NewEngine(&m.gcfg); err != nil {
		return nil, fmt.Errorf("shard: configuring GACT: %w", err)
	}
	if m.dcfg.N <= 0 || m.dcfg.H <= 0 {
		return nil, fmt.Errorf("shard: D-SOFT needs positive N and h (got N=%d h=%d)", m.dcfg.N, m.dcfg.H)
	}
	return m, nil
}

// NewMulti is New over a multi-sequence reference, concatenated with
// the same N padding the monolithic engine uses.
func NewMulti(recs []dna.Record, cfg core.Config, scfg Config) (*ScatterMapper, *core.Reference, error) {
	ref, err := core.NewReference(recs, cfg.BinSize)
	if err != nil {
		return nil, nil, err
	}
	m, err := New(ref.Seq(), cfg, scfg)
	if err != nil {
		return nil, nil, err
	}
	return m, ref, nil
}

// Set returns the underlying shard set (residency snapshots, budgets).
func (m *ScatterMapper) Set() *Set { return m.set }

// Ref returns the concatenated reference.
func (m *ScatterMapper) Ref() dna.Seq { return m.set.ref }

// Config returns the engine configuration.
func (m *ScatterMapper) Config() core.Config { return m.cfg }

// IndexBuildTime reports cumulative shard index construction time
// (global mask pass plus all shard builds so far).
func (m *ScatterMapper) IndexBuildTime() time.Duration { return m.set.BuildTime() }

// Clone returns a mapper sharing the shard set (and its budget) with
// private scratch state.
func (m *ScatterMapper) Clone() (*ScatterMapper, error) {
	return &ScatterMapper{set: m.set, cfg: m.cfg, dcfg: m.dcfg, gcfg: m.gcfg}, nil
}

// CloneMapper implements core.Mapper.
func (m *ScatterMapper) CloneMapper() (core.Mapper, error) { return m.Clone() }

// ensureWorkers grows the worker pool to n states.
func (m *ScatterMapper) ensureWorkers(n int) error {
	for len(m.workers) < n {
		e, err := gact.NewEngine(&m.gcfg)
		if err != nil {
			return err
		}
		m.workers = append(m.workers, &workerState{engine: e})
	}
	return nil
}

// MapRead maps one read through the sharded pipeline. Equivalent to
// core.Darwin.MapRead up to instrumentation: alignments and candidate
// counts are bit-identical; DSOFT work stats count per-shard work (a
// read's seeds are issued against every shard's table), so SeedsIssued
// and friends scale with the shard count.
func (m *ScatterMapper) MapRead(q dna.Seq) ([]core.ReadAlignment, core.MapStats) {
	res, err := m.Map(context.Background(), []dna.Seq{q}, core.WithWorkers(1))
	if err != nil || len(res) != 1 || res[0].Err != nil {
		// Background context never cancels; shard builds were validated
		// at construction. Treat any residual failure as unmapped.
		return nil, core.MapStats{}
	}
	return res[0].Alignments, res[0].Stats
}

// Map maps a batch with cancellation between reads and between shards.
// Results are in input order and deterministic for any worker count
// and any shard geometry: each read's merged candidates are sorted
// into the monolithic engine's emission order before truncation, and
// alignments pass through core.SortAlignments.
//
// Per-read failures — a panic in a read's filter or extension work, an
// injected core/map_read fault, or a core.WithDeadlinePerRead budget
// blown — land in that read's MapResult.Err while the rest of the
// batch completes. The per-read deadline is enforced cooperatively
// between candidate extensions (this engine has no goroutine to
// abandon: its workers own shard-set state), so its granularity is one
// GACT extension.
func (m *ScatterMapper) Map(ctx context.Context, reads []dna.Seq, options ...core.MapOption) ([]core.MapResult, error) {
	o := core.ResolveMapOptions(options)
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(reads) {
		workers = len(reads)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(reads) == 0 {
		return []core.MapResult{}, nil
	}
	if err := m.ensureWorkers(workers); err != nil {
		return nil, err
	}
	// Trace hook: under a traced request the batch gets a shard.map
	// span with scatter/gather phase children; untraced callers pay one
	// context lookup and nil checks.
	_, mSpan := obs.StartSpan(ctx, "shard.map")
	defer mSpan.End()
	mSpan.SetAttr("reads", int64(len(reads)))
	mSpan.SetAttr("workers", int64(workers))
	mSpan.SetAttr("shards", int64(len(m.set.shards)))

	// Reverse-complement every read once; both phases reuse them.
	revs := make([]dna.Seq, len(reads))
	for i, r := range reads {
		revs[i] = dna.RevComp(r)
	}
	acc := make([]perRead, len(reads))

	// Scatter: shard-major D-SOFT. Reads are striped across workers
	// (worker w owns reads i ≡ w mod workers), so each accumulator has
	// exactly one writer and candidate order per read is deterministic:
	// shards ascending, then the filter's (QueryPos, RefPos) emission
	// order within a shard.
	scatterStart := time.Now()
	scSpan := mSpan.StartChild("shard.scatter")
	defer scSpan.End() // idempotent; covers the loop's error returns
	hits0, builds0 := cAcquireHits.Value(), cBuilds.Value()
	for si := range m.set.shards {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		table, err := m.set.Acquire(si)
		if err != nil {
			return nil, err
		}
		part := m.set.shards[si].part
		err = m.runStriped(ctx, workers, len(reads), func(w *workerState, i int) error {
			if w.filter == nil {
				f, ferr := dsoft.New(table, m.dcfg)
				if ferr != nil {
					return ferr
				}
				w.filter = f
			} else if ferr := w.filter.SetTable(table); ferr != nil {
				return ferr
			}
			pr := &acc[i]
			if pr.err != nil {
				return nil // poisoned by an earlier shard's pass; skip
			}
			if perr := m.scatterRead(w, pr, reads[i], revs[i], part); perr != nil {
				pr.err = perr
				// The filter's bin state may be mid-update after a
				// panic; rebuild it before the worker's next read.
				w.filter = nil
			}
			return nil
		})
		// Unpin the shard table from every worker before the next
		// shard (or an early return) so eviction can reclaim it.
		for _, w := range m.workers[:workers] {
			if w.filter != nil {
				w.filter.SetTable(nil)
			}
		}
		if err != nil {
			return nil, err
		}
	}
	tScatter.Observe(time.Since(scatterStart))
	// Process-wide counter deltas, so concurrent clones sharing the Set
	// blur each other's numbers slightly; per-call exactness is not
	// worth threading counters through Acquire.
	scSpan.SetAttr("shard_hits", cAcquireHits.Value()-hits0)
	scSpan.SetAttr("shard_builds", cBuilds.Value()-builds0)
	scSpan.End()

	// Gather: per-read candidate merge, truncation, GACT extension
	// against the full resident reference at global anchors.
	gatherStart := time.Now()
	gSpan := mSpan.StartChild("shard.gather")
	defer gSpan.End()
	prog := core.NewProgressSink(o.Progress, len(reads))
	out := make([]core.MapResult, len(reads))
	err := m.runStriped(ctx, workers, len(reads), func(w *workerState, i int) error {
		readSpan := gSpan.StartChild("core.read")
		if readSpan != nil {
			readSpan.SetAttr("read", int64(i))
			w.engine.SetSpan(readSpan)
		}
		readStart := time.Now()
		out[i] = m.gatherRead(w, i, reads[i], revs[i], &acc[i], o.DeadlinePerRead)
		if readSpan != nil {
			w.engine.SetSpan(nil)
			finishReadSpan(readSpan, readStart, &out[i])
		}
		prog.Step()
		return nil
	})
	tGather.Observe(time.Since(gatherStart))
	gSpan.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// finishReadSpan closes one read's gather-phase trace span, mirroring
// core's per-read span shape: work attributes from MapStats plus
// synthesized stage/filter and stage/align children carrying the
// read's own durations. The filter time was actually spent in the
// scatter phase (shard-major order interleaves all reads' filter
// work), so the child records where the read's time went, not when.
func finishReadSpan(sp *obs.Span, start time.Time, res *core.MapResult) {
	st := res.Stats
	sp.SetAttr("candidates", int64(st.Candidates))
	sp.SetAttr("passed_htile", int64(st.PassedHTile))
	sp.SetAttr("tiles", int64(st.Tiles))
	sp.SetAttr("cells", st.Cells)
	sp.SetAttr("alignments", int64(len(res.Alignments)))
	if res.Err != nil {
		sp.SetAttr("failed", 1)
	}
	sp.AddTimedChild("stage/filter", start, st.FiltrationTime)
	sp.AddTimedChild("stage/align", start.Add(st.FiltrationTime), st.AlignmentTime)
	sp.End()
}

// scatterRead runs one read's D-SOFT pass over one shard with panic
// isolation: a panic (a poisoned read crashing the filter) fails the
// read, never the batch or the worker.
func (m *ScatterMapper) scatterRead(w *workerState, pr *perRead, fwd, rev dna.Seq, part Part) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cReadPanics.Inc()
			err = fmt.Errorf("shard: read scatter panicked: %v", r)
		}
	}()
	for strand, query := range []dna.Seq{fwd, rev} {
		start := time.Now()
		cands, dst := w.filter.QueryInto(query, w.buf[:0])
		w.buf = cands
		pr.stats.DSOFT.Add(dst)
		for _, c := range cands {
			gpos := c.RefPos + part.Extent.Start
			if part.Core.Contains(gpos) {
				pr.strand[strand] = append(pr.strand[strand], gcand{RefPos: gpos, QueryPos: c.QueryPos})
			}
		}
		pr.stats.FiltrationTime += time.Since(start)
	}
	return nil
}

// gatherRead merges, truncates, and extends one read's candidates,
// with panic isolation and a cooperative per-read deadline checked
// between candidate extensions. The core/map_read fault point fires
// inside the recover scope, so injected errors and panics exercise the
// same per-read containment as organic ones.
func (m *ScatterMapper) gatherRead(w *workerState, i int, fwd, rev dna.Seq, pr *perRead, budget time.Duration) (out core.MapResult) {
	defer func() {
		if r := recover(); r != nil {
			cReadPanics.Inc()
			// The engine's scratch may be mid-update; retire it so the
			// worker's next read starts clean.
			if e, eerr := gact.NewEngine(&m.gcfg); eerr == nil {
				w.engine = e
			}
			out = core.MapResult{Index: i, Err: fmt.Errorf("shard: read mapping panicked: %v", r)}
		}
	}()
	if pr.err != nil {
		return core.MapResult{Index: i, Err: pr.err}
	}
	if err := fpMapRead.Fire(); err != nil {
		return core.MapResult{Index: i, Err: err}
	}
	readStart := time.Now()
	var alns []core.ReadAlignment
	stats := pr.stats
	for strand := range pr.strand {
		cs := pr.strand[strand]
		// The monolithic filter emits candidates in ascending
		// (QueryPos, RefPos) order — seeds advance through the query
		// and each seed's hit list is position-sorted — and no two
		// candidates share a (QueryPos, RefPos) pair. Sorting the
		// merged per-shard lists by the same key reproduces that
		// order exactly, so MaxCandidates truncates the same prefix.
		sort.Slice(cs, func(a, b int) bool {
			if cs[a].QueryPos != cs[b].QueryPos {
				return cs[a].QueryPos < cs[b].QueryPos
			}
			return cs[a].RefPos < cs[b].RefPos
		})
		stats.Candidates += len(cs)
		if m.cfg.MaxCandidates > 0 && len(cs) > m.cfg.MaxCandidates {
			cs = cs[:m.cfg.MaxCandidates]
		}
		query := fwd
		if strand == 1 {
			query = rev
		}
		start := time.Now()
		for _, c := range cs {
			if budget > 0 && time.Since(readStart) > budget {
				cReadExpiry.Inc()
				return core.MapResult{Index: i, Err: fmt.Errorf("shard: read exceeded per-read deadline %v: %w", budget, context.DeadlineExceeded)}
			}
			res, gst, err := w.engine.Extend(m.set.ref, query, c.RefPos, c.QueryPos)
			if err != nil {
				continue // invalid anchor geometry; candidate is unusable
			}
			stats.Tiles += gst.Tiles
			stats.Cells += gst.Cells
			stats.FirstTileScores = append(stats.FirstTileScores, gst.FirstTileScore)
			if res == nil {
				continue
			}
			stats.PassedHTile++
			alns = append(alns, core.ReadAlignment{Result: *res, Reverse: strand == 1, FirstTileScore: gst.FirstTileScore})
		}
		stats.AlignmentTime += time.Since(start)
	}
	core.SortAlignments(alns)
	cReads.Inc()
	cAlignments.Add(int64(len(alns)))
	if len(alns) == 0 {
		cUnmapped.Inc()
	}
	hCandidates.Observe(float64(stats.Candidates))
	return core.MapResult{Index: i, Alignments: alns, Stats: stats}
}

// runStriped applies fn(worker, i) for every read index i, striping
// reads across workers deterministically (worker w handles i ≡ w mod
// workers). With one worker it runs inline. Cancellation is checked
// between reads; the first error wins.
func (m *ScatterMapper) runStriped(ctx context.Context, workers, n int, fn func(w *workerState, i int) error) error {
	if workers <= 1 {
		w := m.workers[0]
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(w, i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := m.workers[wi]
			for i := wi; i < n; i += workers {
				if ctx.Err() != nil {
					return
				}
				if err := fn(w, i); err != nil {
					errs[wi] = err
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
