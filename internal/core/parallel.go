package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"darwin/internal/dna"
	"darwin/internal/dsoft"
	"darwin/internal/gact"
	"darwin/internal/obs"
)

// Map observability: the worker gauge plus a busy-time timer, so
// utilization = core/worker_busy seconds / (wall × core/workers) is
// derivable from any run report.
var (
	gWorkers    = obs.Default.Gauge("core/workers")
	tWorkerBusy = obs.Default.Timer("core/worker_busy")
	cReadPanics = obs.Default.Counter("core/read_panics")
	cReadExpiry = obs.Default.Counter("core/read_deadline_expired")
)

// Clone returns an engine sharing this one's (immutable) seed table
// but with private D-SOFT bin state, a private GACT kernel, and fresh
// scratch buffers, safe to use from another goroutine. This mirrors
// the hardware, where the seed tables are replicated read-only across
// DRAM channels while each query stream owns its bin-count SRAM and
// each GACT array its traceback SRAM.
//
// Clone reads only fields that are immutable after New (reference,
// seed table, config, build time) — never the mutable scratch — so it
// is safe to call even while another goroutine is still mapping on
// the receiver. The per-read deadline watchdog relies on this: an
// abandoned read's goroutine may keep mutating its engine's scratch,
// and the worker recovers by cloning a fresh engine from the original.
func (d *Darwin) Clone() (*Darwin, error) {
	stride := d.cfg.SeedStride
	if stride < 1 {
		stride = 1
	}
	filter, err := dsoft.New(d.table, dsoft.Config{
		N:       d.cfg.SeedN,
		H:       d.cfg.Threshold,
		BinSize: d.cfg.BinSize,
		Stride:  stride,
	})
	if err != nil {
		return nil, fmt.Errorf("core: cloning filter: %w", err)
	}
	engine, err := gact.NewEngine(&d.cfg.GACT)
	if err != nil {
		return nil, fmt.Errorf("core: cloning GACT engine: %w", err)
	}
	return &Darwin{
		ref:            d.ref,
		table:          d.table,
		filter:         filter,
		engine:         engine,
		cfg:            d.cfg,
		TableBuildTime: d.TableBuildTime,
	}, nil
}

// CloneMapper implements the Mapper interface over Clone.
func (d *Darwin) CloneMapper() (Mapper, error) { return d.Clone() }

// IndexBuildTime implements the Mapper interface (seed-table
// construction time).
func (d *Darwin) IndexBuildTime() time.Duration { return d.TableBuildTime }

// MapResult pairs one read's alignments with its index and statistics.
type MapResult struct {
	// Index is the read's position in the input slice.
	Index int
	// Alignments are sorted by descending score.
	Alignments []ReadAlignment
	// Stats instruments the read's mapping.
	Stats MapStats
	// Err is set when this read individually failed — it panicked
	// mid-pipeline, blew its per-read deadline (wraps
	// context.DeadlineExceeded), or hit an injected fault — while the
	// rest of the batch completed normally. A batch-level failure
	// (cancelled context, clone failure) is returned by Map itself.
	Err error
}

// MapSettings is the resolved option set for one Map call. Mapper
// implementations outside this package (internal/shard) interpret
// options through ResolveMapOptions, so the two engines read one
// option vocabulary.
type MapSettings struct {
	// Workers is the worker-goroutine count (0 = one per CPU).
	Workers int
	// DeadlinePerRead bounds one read's wall-clock mapping time
	// (0 = unbounded).
	DeadlinePerRead time.Duration
	// Progress, when non-nil, is invoked after each read completes.
	Progress func(done, total int)
}

// MapOption configures a Map call.
type MapOption func(*MapSettings)

// ResolveMapOptions folds options into a MapSettings.
func ResolveMapOptions(options []MapOption) MapSettings {
	var o MapSettings
	for _, opt := range options {
		opt(&o)
	}
	return o
}

// WithWorkers sets the number of worker goroutines. 1 runs inline on
// the receiver; <= 0 (and the default) uses one worker per CPU.
// Workers beyond len(reads) are not spawned.
func WithWorkers(n int) MapOption {
	return func(o *MapSettings) { o.Workers = n }
}

// WithDeadlinePerRead bounds each individual read's wall-clock mapping
// time. A read that exceeds the budget gets MapResult.Err wrapping
// context.DeadlineExceeded while the rest of the batch proceeds: the
// stuck read's goroutine is abandoned (it cannot be interrupted
// mid-DP-tile) and its worker continues on a freshly cloned engine, so
// one pathological read costs one engine clone, never the batch. (The
// sharded mapper instead checks the budget cooperatively between
// candidate extensions — its deadline granularity is one GACT
// extension, not one tile.) Zero or negative disables the bound (the
// default).
func WithDeadlinePerRead(d time.Duration) MapOption {
	return func(o *MapSettings) { o.DeadlinePerRead = d }
}

// WithProgress registers a callback invoked after each read completes
// with (reads done so far, total reads). Calls are serialized
// (Darwin.Map makes them in read order); the callback must be fast —
// it runs on the mapping critical path.
func WithProgress(fn func(done, total int)) MapOption {
	return func(o *MapSettings) { o.Progress = fn }
}

// ProgressSink serializes WithProgress callbacks across workers. A nil
// *ProgressSink is valid and does nothing, so callers can construct
// one only when a callback was given.
type ProgressSink struct {
	mu    sync.Mutex
	fn    func(done, total int)
	done  int
	total int
}

// NewProgressSink returns a sink for fn over total reads, or nil when
// fn is nil.
func NewProgressSink(fn func(done, total int), total int) *ProgressSink {
	if fn == nil {
		return nil
	}
	return &ProgressSink{fn: fn, total: total}
}

// Step records one completed read and invokes the callback.
func (p *ProgressSink) Step() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.fn(p.done, p.total)
	p.mu.Unlock()
}

// readOutcome is one guarded read's result.
type readOutcome struct {
	alns []ReadAlignment
	st   MapStats
	err  error
}

// finishReadSpan closes one read's trace span: work attributes from
// the read's MapStats, plus synthesized stage/filter and stage/align
// children carrying the same per-read durations the Registry's stage
// timers aggregate — so a captured tree splits one read's latency the
// same way the process-wide timers split the fleet's. The filter span
// is anchored at the read's start and the align span immediately
// after it, matching the pipeline's actual phase order.
func finishReadSpan(sp *obs.Span, busy time.Time, oc readOutcome) {
	st := oc.st
	sp.SetAttr("candidates", int64(st.Candidates))
	sp.SetAttr("passed_htile", int64(st.PassedHTile))
	sp.SetAttr("tiles", int64(st.Tiles))
	sp.SetAttr("cells", st.Cells)
	sp.SetAttr("alignments", int64(len(oc.alns)))
	if oc.err != nil {
		sp.SetAttr("failed", 1)
	}
	sp.AddTimedChild("stage/filter", busy, st.FiltrationTime)
	sp.AddTimedChild("stage/align", busy.Add(st.FiltrationTime), st.AlignmentTime)
	sp.End()
}

// mapReadRecovered maps one read with panic isolation: a panic
// anywhere in the filter/extend pipeline (or injected at the
// core/map_read fault point) becomes this read's Err instead of
// killing the worker. The fault point fires inside the recover scope
// so injected panics exercise the same containment as organic ones.
func mapReadRecovered(e *Darwin, q dna.Seq) (out readOutcome) {
	defer func() {
		if r := recover(); r != nil {
			cReadPanics.Inc()
			out = readOutcome{err: fmt.Errorf("core: read mapping panicked: %v", r)}
		}
	}()
	if err := fpMapRead.Fire(); err != nil {
		return readOutcome{err: err}
	}
	alns, st := e.MapRead(q)
	return readOutcome{alns: alns, st: st}
}

// runRead maps one read under an optional wall-clock budget. With no
// budget it runs inline. With a budget it runs under a watchdog: on
// expiry the read's goroutine is abandoned (reported via abandoned so
// the caller retires the engine — its scratch may still be mutated by
// the stray goroutine) and the read fails with a deadline error.
func runRead(e *Darwin, q dna.Seq, budget time.Duration) (out readOutcome, abandoned bool) {
	if budget <= 0 {
		return mapReadRecovered(e, q), false
	}
	ch := make(chan readOutcome, 1)
	go func() { ch <- mapReadRecovered(e, q) }()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o, false
	case <-timer.C:
		cReadExpiry.Inc()
		return readOutcome{err: fmt.Errorf("core: read exceeded per-read deadline %v: %w", budget, context.DeadlineExceeded)}, true
	}
}

// Map maps every read, in input order, under ctx. It is the one batch
// entrypoint of the monolithic engine.
//
// Cancellation is checked between reads — a read that has entered the
// pipeline always completes (unless WithDeadlinePerRead abandons it),
// the granularity a served request can be dropped at without
// corrupting shared engine state. On cancellation Map returns
// ctx.Err() and no results.
//
// Per-read failures (panics, per-read deadline expiry, injected
// faults) are confined to that read's MapResult.Err; the rest of the
// batch completes normally.
func (d *Darwin) Map(ctx context.Context, reads []dna.Seq, options ...MapOption) ([]MapResult, error) {
	o := ResolveMapOptions(options)
	workers := o.Workers
	if workers <= 0 {
		// A zero or negative worker count is a configuration accident,
		// not a request for zero concurrency: default to one worker per
		// CPU rather than silently running single-threaded.
		workers = runtime.NumCPU()
	}
	if workers > len(reads) {
		workers = len(reads)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Trace hook: under a traced request the batch gets a core.map span
	// with one core.read child per read; untraced callers (CLIs,
	// benchmarks) pay one context lookup and per-read nil checks.
	_, cmSpan := obs.StartSpan(ctx, "core.map")
	defer cmSpan.End()
	cmSpan.SetAttr("reads", int64(len(reads)))
	cmSpan.SetAttr("workers", int64(workers))
	out := make([]MapResult, len(reads))
	prog := NewProgressSink(o.Progress, len(reads))
	// mapOne is the per-read body both paths share: span, busy timer,
	// guarded run and result. tid is the worker's 1-based id, or 0 on
	// the inline path. It also returns the engine for the next read — a
	// fresh clone when this read was abandoned, because its stray
	// goroutine may still mutate e's scratch — or the clone's error, in
	// which case the read is stored but not counted as progress.
	mapOne := func(e *Darwin, i, tid int) (MapResult, *Darwin, error) {
		if tid > 0 {
			defer obs.Trace.StartTID("core.map_read.worker", tid)()
		}
		readSpan := cmSpan.StartChild("core.read")
		if readSpan != nil {
			readSpan.SetAttr("read", int64(i))
			if tid > 0 {
				readSpan.SetAttr("worker", int64(tid))
			}
			e.engine.SetSpan(readSpan)
		}
		busy := time.Now()
		oc, abandoned := runRead(e, reads[i], o.DeadlinePerRead)
		tWorkerBusy.Observe(time.Since(busy))
		if readSpan != nil {
			e.engine.SetSpan(nil)
			finishReadSpan(readSpan, busy, oc)
		}
		res := MapResult{Index: i, Alignments: oc.alns, Stats: oc.st, Err: oc.err}
		if abandoned {
			ne, err := d.Clone()
			if err != nil {
				return res, nil, err
			}
			e = ne
		}
		return res, e, nil
	}
	if workers <= 1 || len(reads) <= 1 {
		// Inline: no goroutines, mapping on the receiver itself.
		gWorkers.Set(1)
		e := d
		for i := range reads {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var err error
			if out[i], e, err = mapOne(e, i, 0); err != nil {
				return nil, err
			}
			prog.Step()
		}
		return out, nil
	}
	gWorkers.Set(int64(workers))
	engines, err := d.clones(workers)
	if err != nil {
		return nil, err
	}
	type mapped struct {
		res MapResult
		err error
	}
	// A worker whose replacement clone failed maps nothing more; the
	// failure stops the pool when its read merges.
	cloneErrs := make([]error, workers)
	_, err = runOrdered(ctx, workers, 0, len(reads), func(tid, i int) mapped {
		if err := cloneErrs[tid-1]; err != nil {
			return mapped{MapResult{Index: i}, err}
		}
		var m mapped
		m.res, engines[tid-1], cloneErrs[tid-1] = mapOne(engines[tid-1], i, tid)
		m.err = cloneErrs[tid-1]
		return m
	}, func(i int, m mapped) error {
		out[i] = m.res
		if m.err != nil {
			return m.err
		}
		prog.Step()
		return nil
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// clones returns n clones of d, one per pool worker.
func (d *Darwin) clones(n int) ([]*Darwin, error) {
	es := make([]*Darwin, n)
	for w := range es {
		e, err := d.Clone()
		if err != nil {
			return nil, err
		}
		es[w] = e
	}
	return es, nil
}

// runOrdered is the package's worker pool. It runs work(tid, i) for
// every i in [from, to) on workers goroutines (tid is the worker's
// 1-based id, so work can keep per-worker state such as an engine
// clone in a slice indexed by tid-1) and hands each result to merge on
// the calling goroutine in index order. Results that finish ahead of a
// slower lower index wait in memory until it merges. No index is
// handed out once ctx is cancelled or merge has failed; indices in
// flight complete and merge if every lower one did. It returns the
// first index not merged and merge's error.
func runOrdered[T any](ctx context.Context, workers, from, to int, work func(tid, i int) T, merge func(i int, v T) error) (int, error) {
	type done struct {
		i int
		v T
	}
	idx := make(chan int)
	// One slot per worker, so a worker never waits on the merge to hand
	// off a finished result.
	res := make(chan done, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := range idx {
				res <- done{i, work(tid, i)}
			}
		}(w)
	}
	go func() {
		defer close(idx)
		for i := from; i < to && ctx.Err() == nil; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			case <-stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(res)
	}()
	next := from
	pending := map[int]T{}
	var err error
	for d := range res {
		pending[d.i] = d.v
		for v, ok := pending[next]; ok && err == nil; v, ok = pending[next] {
			delete(pending, next)
			if err = merge(next, v); err != nil {
				close(stop)
			}
			next++
		}
	}
	return next, err
}
