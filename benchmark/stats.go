package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"darwin/internal/obs"
)

// phase is what the clients of one load phase observed.
type phase struct {
	// wall is the load phase's wall time, from the first call until
	// the last caller returned.
	wall time.Duration
	// lanes is the number of concurrent callers (clients, or the one
	// library caller); each lane's calls run back to back.
	lanes int
	// units holds the round trip of every call, request or job.
	units []time.Duration
	// tailQ is the percentile reported as latency_tail_ms: the highest
	// of p99/p95/p90 that keeps at least ten samples beyond it at the
	// default run length.
	tailQ float64
	// passes holds the wall time of each job: jobReads pool reads
	// through the mapping paths, or one assembly job.
	passes []time.Duration
	// reads counts reads returned with a well-formed result.
	reads int64
	// useful counts the results a user keeps: mapped reads, or overlaps.
	useful int64
	// attempted and failed count units; a refusal, an error line, a
	// missing read, a failed check or a job not done all fail a unit.
	attempted, failed int64
	// accuracy is mapped_correct_frac: distinct pool reads whose best
	// alignment overlaps the simulated truth ÷ reads, or for assembly
	// the share of the genome's distinct 21-mers found in the contigs.
	accuracy float64
	// n50 is the N50 of the output lengths: contigs, or the reference
	// spans of the reads' best alignments.
	n50 int
	// checkErr is the first output check that failed, if any.
	checkErr error
	// extra holds workload-specific per-layer inputs the counters do
	// not carry: "index_bytes" and "queue_s" (mean job queue time).
	extra map[string]float64
	// calls holds, on a traced mapping run, every call's round trip
	// with the span tree the program built for it.
	calls []tracedCall
}

// tracedCall is one traced call into the program: its round trip as
// the benchmark timed it, and the program's own span tree for it
// (core.map under Map, or darwind's request root under /v1/map).
type tracedCall struct {
	wall    time.Duration
	program obs.SpanSnapshot
}

// readsPerS is the phase's delivered throughput.
func (p *phase) readsPerS() float64 { return float64(p.reads) / p.wall.Seconds() }

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(ph *phase, setup time.Duration, peakRSS float64) map[string]metric {
	return map[string]metric{
		"setup_s":             {setup.Seconds(), "s"},
		"reads_per_s":         {ph.readsPerS(), "reads/s"},
		"latency_p50_ms":      {ms(quantile(ph.units, 0.5)), "ms"},
		"latency_tail_ms":     {ms(quantile(ph.units, ph.tailQ)), "ms"},
		"job_s":               {quantile(ph.passes, 0.5).Seconds(), "s"},
		"mapped_correct_frac": {ph.accuracy, "ratio"},
		"n50_bp":              {float64(ph.n50), "bp"},
		"peak_rss_mb":         {peakRSS, "MiB"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds by linear interpolation
// between closest ranks (0 for an empty slice).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// weightedQuantile returns the q-quantile of values whose samples
// carry weights (0 when empty): the smallest value whose cumulative
// weight reaches q of the total.
func weightedQuantile(vals, weights []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	idx := make([]int, len(vals))
	total := 0.0
	for i := range idx {
		idx[i] = i
		total += weights[i]
	}
	sort.Slice(idx, func(a, b int) bool { return vals[idx[a]] < vals[idx[b]] })
	acc := 0.0
	for _, i := range idx {
		acc += weights[i]
		if acc >= q*total {
			return vals[i]
		}
	}
	return vals[idx[len(idx)-1]]
}

// n50 returns the length L such that pieces of length ≥ L hold at
// least half of the total length.
func n50(lengths []int) int {
	s := append([]int(nil), lengths...)
	sort.Sort(sort.Reverse(sort.IntSlice(s)))
	total := 0
	for _, l := range s {
		total += l
	}
	acc := 0
	for _, l := range s {
		acc += l
		if 2*acc >= total {
			return l
		}
	}
	return 0
}

// rssMiB reads the process's current and peak resident set (VmRSS,
// VmHWM).
func rssMiB() (cur, peak float64) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, 0
	}
	field := func(name string) float64 {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, name+":"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				return kb / 1024
			}
		}
		return 0
	}
	return field("VmRSS"), field("VmHWM")
}

// cpuClock reads the process's CPU time (user + system) and the host's
// stolen time summed over CPUs, both since boot of their counters.
func cpuClock() (proc, steal time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		proc = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return proc, 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseInt(f[8], 10, 64)
		steal = time.Duration(ticks) * 10 * time.Millisecond
	}
	return proc, steal
}

// resetPeakRSS returns freed heap to the OS and restarts VmHWM from the
// current resident set, so peak_rss_mb covers the system under test
// rather than input generation.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "resetting peak RSS: %v\n", err)
	}
}

// recorder keeps the benchmark's own spans in memory: one root per
// call it makes into the program, identified like the request or job
// it covers. A nil recorder records nothing (the untraced runs).
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	roots  []rootSpan
}

// rootSpan is one recorded root with its wall-clock start, so the
// written trace places every root on one time axis.
type rootSpan struct {
	start time.Time
	span  *obs.Span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// start opens a root span; obs spans are nil-safe, so callers use the
// result unconditionally.
func (r *recorder) start(id, name string) *obs.Span {
	if r == nil {
		return nil
	}
	s := obs.NewRequestSpan(id, name)
	r.mu.Lock()
	r.roots = append(r.roots, rootSpan{time.Now(), s})
	r.mu.Unlock()
	return s
}

// total sums the durations of the root spans with the given name.
func (r *recorder) total(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	for _, rs := range r.roots {
		if rs.span.Name() == name {
			sum += rs.span.Duration()
		}
	}
	return sum
}

// totalAll sums the durations of every root span.
func (r *recorder) totalAll() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum time.Duration
	for _, rs := range r.roots {
		sum += rs.span.Duration()
	}
	return sum
}

// tracedSpan is one root span as written to the trace file.
type tracedSpan struct {
	OffsetUS int64            `json:"offset_us"`
	Span     obs.SpanSnapshot `json:"span"`
}

// snapshots returns every recorded span tree, offset from the
// recorder's creation.
func (r *recorder) snapshots() []tracedSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]tracedSpan, len(r.roots))
	for i, rs := range r.roots {
		out[i] = tracedSpan{rs.start.Sub(r.origin).Microseconds(), rs.span.Snapshot()}
	}
	return out
}
