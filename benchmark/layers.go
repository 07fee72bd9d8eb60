package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"darwin/internal/gact"
	"darwin/internal/hw"
	"darwin/internal/obs"
)

// Layer-sum tolerances of the traced run.
const (
	// spanCoverTol bounds the share of the traced interval's wall time
	// (set-up plus load) that the benchmark's own spans leave uncovered.
	spanCoverTol = 0.05
	// coreStageTol bounds |core/worker_busy − (stage/filter +
	// stage/align)| as a share of core/worker_busy.
	coreStageTol = 0.10
	// programCoverTol bounds the share of the traced calls' round trips
	// that the program's own layers leave unexplained.
	programCoverTol = 0.10
)

// runTraced is the per-layer run: traced set-ups, an untraced load
// phase as the tracing-overhead baseline, then a traced load phase
// whose counter deltas and spans give the per-layer metrics.
func runTraced(o options, w workload) (*result, error) {
	ctx := context.Background()
	rec := newRecorder()
	s0 := obs.Default.Snapshot()
	t0 := time.Now()
	if _, err := timeSetups(w, rec, setupRepeats); err != nil {
		return nil, err
	}
	setupWall := time.Since(t0)
	setupDelta := obs.Default.Snapshot().Sub(s0)

	base, err := w.load(ctx, o.seconds, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced load phase: %w", err)
	}
	l0 := obs.Default.Snapshot()
	ph, err := w.load(ctx, o.seconds, rec)
	if err != nil {
		return nil, fmt.Errorf("traced load phase: %w", err)
	}
	loadDelta := obs.Default.Snapshot().Sub(l0)

	lay := newLayerView(ph, setupDelta, loadDelta)
	metrics := lay.metrics(rec)
	metrics["trace.overhead_frac"] = metric{1 - ph.readsPerS()/base.readsPerS(), "ratio"}

	// Layer sums: the benchmark's spans must cover the traced interval,
	// and inside core the stage timers must add up to worker busy time.
	setupSpans := rec.total("setup")
	loadSpans := (rec.totalAll() - setupSpans) / time.Duration(ph.lanes)
	wall := setupWall + ph.wall
	uncovered := wall - setupSpans - loadSpans
	metrics["layersum.uncovered_s"] = metric{uncovered.Seconds(), "s"}
	metrics["layersum.uncovered_frac"] = metric{uncovered.Seconds() / wall.Seconds(), "ratio"}
	var sumErr error
	if math.Abs(uncovered.Seconds()) > spanCoverTol*wall.Seconds() {
		sumErr = fmt.Errorf("spans leave %.3f s of %.3f s uncovered (tolerance %.0f%%)", uncovered.Seconds(), wall.Seconds(), 100*spanCoverTol)
	}
	// Inside the calls, the program's layers must explain the round
	// trips: the call time they leave uncovered is HTTP, JSON, batch
	// formation, Map's own set-up, job bookkeeping and polling.
	callS, progS := lay.programCover(rec)
	metrics["layersum.program_uncovered_s"] = metric{callS - progS, "s"}
	metrics["layersum.program_uncovered_frac"] = metric{ratio(callS-progS, callS), "ratio"}
	if gap := ratio(callS-progS, callS); gap > programCoverTol || gap < 0 {
		sumErr = fmt.Errorf("program layers explain %.3f s of %.3f s of call time (tolerance %.0f%%)", progS, callS, 100*programCoverTol)
	}
	if gap := metrics["layersum.core_gap_frac"].Value; math.Abs(gap) > coreStageTol {
		sumErr = fmt.Errorf("stage/filter + stage/align differ from core/worker_busy by %.1f%% (tolerance %.0f%%)", 100*gap, 100*coreStageTol)
	}

	checkErr := firstErr(base.checkErr, ph.checkErr, sumErr)
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "check failed: %v\n", checkErr)
	}
	printBreakdown(o, lay, base, ph, setupWall, uncovered)
	if err := writeTrace(o, rec); err != nil {
		fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
	}
	return &result{
		Correct:   checkErr == nil,
		Attempted: base.attempted + ph.attempted,
		Failed:    base.failed + ph.failed,
		Metrics:   metrics,
	}, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// layerView reads one traced run's counters (set-up deltas for the
// index layer, load-phase deltas for everything else) and the span
// trees the program built for the traced calls.
type layerView struct {
	ph           *phase
	setup, load  obs.Snapshot
	tileT, tileO int
	spans        spanView
}

func newLayerView(ph *phase, setup, load obs.Snapshot) *layerView {
	g := gact.DefaultConfig()
	return &layerView{ph: ph, setup: setup, load: load, tileT: g.T, tileO: g.O, spans: viewSpans(ph.calls)}
}

// spanView is what the program's span trees of one traced phase say.
type spanView struct {
	// readMS holds every core.read span's duration; readW weighs a
	// read of a batch that several requests share by 1/requests, so
	// each mapped read counts once.
	readMS, readW []float64
	// queue holds every request's server.queue_wait span.
	queue []time.Duration
	// requests counts darwind request trees; coalesced those whose
	// batch held more than one request.
	requests, coalesced int
	// callS sums the calls' round trips; coveredS the part of each
	// that the program's layers account for: the busiest Map worker's
	// reads, or darwind's admit, queue-wait and batch stages.
	callS, coveredS float64
}

func viewSpans(calls []tracedCall) spanView {
	var v spanView
	var visit func(s obs.SpanSnapshot, w float64)
	visit = func(s obs.SpanSnapshot, w float64) {
		switch s.Name {
		case "server.batch":
			if j := s.Attrs["jobs"]; j > 1 {
				w = 1 / float64(j)
			}
		case "core.read":
			v.readMS = append(v.readMS, float64(s.DurationUS)/1e3)
			v.readW = append(v.readW, w)
		case "server.queue_wait":
			v.queue = append(v.queue, time.Duration(s.DurationUS)*time.Microsecond)
		}
		for _, c := range s.Children {
			visit(c, w)
		}
	}
	for _, c := range calls {
		visit(c.program, 1)
		v.callS += c.wall.Seconds()
		if c.program.Name == "core.map" {
			perWorker := make(map[int64]int64)
			busiest := int64(0)
			for _, r := range c.program.Children {
				if r.Name == "core.read" {
					perWorker[r.Attrs["worker"]] += r.DurationUS
					busiest = max(busiest, perWorker[r.Attrs["worker"]])
				}
			}
			v.coveredS += float64(busiest) / 1e6
			continue
		}
		v.requests++
		for _, st := range c.program.Children {
			v.coveredS += float64(st.DurationUS) / 1e6
			if st.Name == "server.batch" && st.Attrs["jobs"] > 1 {
				v.coalesced++
			}
		}
	}
	return v
}

// programCover returns the traced calls' total round trip and the
// part of it the program's layers account for. Mapping calls carry
// span trees; an assembly job is covered by its queue time and the
// olc/assemble timer.
func (l *layerView) programCover(rec *recorder) (callS, coveredS float64) {
	if len(l.ph.calls) > 0 {
		return l.spans.callS, l.spans.coveredS
	}
	jobs := float64(l.ph.attempted - l.ph.failed)
	return rec.total("job assemble").Seconds(), l.s("olc/assemble") + jobs*l.ph.extra["queue_s"]
}

func (l *layerView) n(name string) float64 { return float64(l.load.Counters[name]) }
func (l *layerView) s(name string) float64 { return l.load.Timers[name].Seconds }

// both sums a timer over set-up and load.
func (l *layerView) both(name string) obs.TimerSnapshot {
	a, b := l.setup.Timers[name], l.load.Timers[name]
	return obs.TimerSnapshot{Count: a.Count + b.Count, Seconds: a.Seconds + b.Seconds}
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// model feeds this run's per-read work into the paper's ASIC
// estimator.
func (l *layerView) model() hw.Estimate {
	reads := float64(l.ph.reads)
	return hw.NewDarwin().Estimate(hw.Workload{
		SeedsPerRead: ratio(l.n("dsoft/seeds_issued"), reads),
		HitsPerSeed:  ratio(l.n("dsoft/hits"), l.n("dsoft/seeds_issued")),
		TilesPerRead: ratio(l.n("gact/tiles"), reads),
		TileT:        l.tileT,
		TileO:        l.tileO,
	})
}

// metrics returns every per-layer metric; a layer the workload does
// not exercise reports zero work.
func (l *layerView) metrics(rec *recorder) map[string]metric {
	ph := l.ph
	ext := l.n("gact/extensions")
	bv, fb := l.n("gact/tile_bitvector"), l.n("gact/tile_fallback")
	idx, load := l.both("stage/index"), l.both("index/load")
	busy := l.s("core/worker_busy")
	overlaps := l.n("overlap/overlaps_found")
	model := l.model()
	m := map[string]metric{
		"failed_frac": {ratio(float64(ph.failed), float64(ph.attempted)), "ratio"},

		"dsoft.seeds":         {l.n("dsoft/seeds_issued"), "count"},
		"dsoft.hits_per_seed": {ratio(l.n("dsoft/hits"), l.n("dsoft/seeds_issued")), "hits/seed"},
		"dsoft.candidates":    {l.n("dsoft/candidates"), "count"},
		"dsoft.filter_s":      {l.s("stage/filter"), "s"},

		"gact.extensions":               {ext, "count"},
		"gact.tiles":                    {l.n("gact/tiles"), "count"},
		"gact.cells":                    {l.n("gact/cells"), "count"},
		"gact.htile_reject_frac":        {ratio(l.n("gact/htile_rejects"), ext), "ratio"},
		"gact.first_tile_s":             {l.s("gact/first_tile"), "s"},
		"gact.align_s":                  {l.s("stage/align"), "s"},
		"gact.alignments_per_extension": {ratio(float64(ph.useful), ext), "ratio"},

		"align.tiles_bitvector": {bv, "count"},
		"align.tiles_fallback":  {fb, "count"},
		"align.tiles_lut":       {l.n("gact/tile_lut"), "count"},
		"align.fallback_frac":   {ratio(fb, bv+fb), "ratio"},
		"align.mcells_per_s":    {ratio(l.n("gact/cells"), l.s("stage/align")) / 1e6, "Mcells/s"},

		"index.build_s": {ratio(idx.Seconds, float64(idx.Count)), "s"},
		"index.load_s":  {ratio(load.Seconds, float64(load.Count)), "s"},
		"index.bytes":   {ph.extra["index_bytes"], "bytes"},

		"core.map_s":             {rec.total("core.Map").Seconds(), "s"},
		"core.worker_busy_s":     {busy, "s"},
		"core.worker_util":       {busy / (ph.wall.Seconds() * float64(nproc())), "ratio"},
		"core.read_p50_ms":       {weightedQuantile(l.spans.readMS, l.spans.readW, 0.5), "ms"},
		"core.read_p99_ms":       {weightedQuantile(l.spans.readMS, l.spans.readW, 0.99), "ms"},
		"layersum.core_gap_frac": {ratio(busy-l.s("stage/filter")-l.s("stage/align"), busy), "ratio"},

		"server.queue_wait_p50_ms": {ms(quantile(l.spans.queue, 0.5)), "ms"},
		"server.queue_wait_p99_ms": {ms(quantile(l.spans.queue, 0.99)), "ms"},
		"server.coalesced_frac":    {ratio(float64(l.spans.coalesced), float64(l.spans.requests)), "ratio"},
		"server.batches":           {l.n("server/batches"), "count"},
		"server.batch_reads_mean":  {ratio(l.n("server/batched_reads"), l.n("server/batches")), "reads"},

		"olc.overlap_s":              {l.s("olc/assemble") - l.s("stage/layout") - l.s("olc/polish") - l.s("olc/reorder"), "s"},
		"olc.layout_s":               {l.s("stage/layout"), "s"},
		"olc.polish_s":               {l.s("olc/polish"), "s"},
		"olc.overlaps":               {overlaps, "count"},
		"olc.extensions_per_overlap": {ratio(ext, overlaps), "ratio"},

		"jobs.queue_s":     {ph.extra["queue_s"], "s"},
		"jobs.checkpoints": {ratio(l.n("jobs/checkpoints_written"), l.n("jobs/completed")), "count"},

		"hw.model_reads_per_s": {model.ReadsPerSec, "reads/s"},
		"hw.gap":               {model.ReadsPerSec / ph.readsPerS(), "ratio"},
	}
	return m
}

// printBreakdown writes the traced run's Fig. 13-style table to
// standard error: where the load phase's thread-seconds went, by
// layer, with the remainder shown rather than hidden.
func printBreakdown(o options, l *layerView, base, ph *phase, setupWall, uncovered time.Duration) {
	capacity := ph.wall.Seconds() * float64(nproc())
	filter, first, align := l.s("stage/filter"), l.s("gact/first_tile"), l.s("stage/align")
	queue := l.load.Histograms["server/queue_wait_ms"].Sum / 1000
	var b strings.Builder
	row := func(name string, secs float64, note string) {
		fmt.Fprintf(&b, "  %-26s %9.3f s %6.1f%%  %s\n", name, secs, 100*secs/capacity, note)
	}
	fmt.Fprintf(&b, "%s seed %d: traced load phase %.2f s × %d CPUs = %.2f thread-s (set-up: %d runs, %.3f s)\n",
		o.workload, o.seed, ph.wall.Seconds(), nproc(), capacity, setupRepeats, setupWall.Seconds())
	idx := l.both("stage/index")
	row("index build (stage/index)", l.s("stage/index"), fmt.Sprintf("set-up builds %d, %.3f s", idx.Count-l.load.Timers["stage/index"].Count, l.setup.Timers["stage/index"].Seconds))
	row("D-SOFT filter", filter, fmt.Sprintf("%.0f seeds, %.1f hits/seed", l.n("dsoft/seeds_issued"), ratio(l.n("dsoft/hits"), l.n("dsoft/seeds_issued"))))
	row("GACT first tile", first, fmt.Sprintf("%.0f extensions, %.1f%% rejected at h_tile", l.n("gact/extensions"), 100*ratio(l.n("gact/htile_rejects"), l.n("gact/extensions"))))
	row("GACT extension", align-first, "by tier (no per-tier timer; tiles and cells):")
	fmt.Fprintf(&b, "      bitvector %10.0f tiles %14.0f cells\n", l.n("gact/tile_bitvector"), l.n("gact/cells_bitvector"))
	fmt.Fprintf(&b, "      fallback  %10.0f tiles (bitvector attempts redone by LUT)\n", l.n("gact/tile_fallback"))
	fmt.Fprintf(&b, "      LUT       %10.0f tiles %14.0f cells\n", l.n("gact/tile_lut"), l.n("gact/cells_lut"))
	row("server queue wait", queue, fmt.Sprintf("waiting, not CPU; %d of %d requests shared a batch", l.spans.coalesced, l.spans.requests))
	row("remainder (other + idle)", capacity-filter-align, "")
	model := l.model()
	fmt.Fprintf(&b, "  ASIC model: %.0f reads/s (%s-bound) vs measured %.1f reads/s, gap %.0fx\n",
		model.ReadsPerSec, model.Bottleneck, ph.readsPerS(), model.ReadsPerSec/ph.readsPerS())
	fmt.Fprintf(&b, "  tracing overhead: %.1f reads/s traced vs %.1f untraced (%+.1f%%); p50 %.1f vs %.1f ms\n",
		ph.readsPerS(), base.readsPerS(), 100*(ph.readsPerS()/base.readsPerS()-1), ms(quantile(ph.units, 0.5)), ms(quantile(base.units, 0.5)))
	fmt.Fprintf(&b, "  span coverage: %.3f s of set-up + load wall uncovered\n", uncovered.Seconds())
	fmt.Fprint(os.Stderr, b.String())
}

// writeTrace writes the recorded spans, one JSON document per run.
func writeTrace(o options, rec *recorder) error {
	if err := os.MkdirAll(o.tracedir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.tracedir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	data, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Spans    []tracedSpan `json:"spans"`
	}{o.workload, o.seed, rec.snapshots()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
