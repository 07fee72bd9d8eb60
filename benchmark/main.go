// Command benchmark is the repository's end-to-end benchmark. It
// generates seeded inputs, drives one of three user workloads through
// the program's public Go surfaces, checks the outputs, and prints one
// JSON result line. From the repository root:
//
//	bash benchmark/run.sh --workload map_batch --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run,
// built from the benchmark's own spans and from deltas of the
// program's obs.Default counters, timers and histograms. The traced
// run also prints a Fig. 13-style breakdown to standard error.
//
// Everything runs in this one process: darwind sits behind a loopback
// listener, and load comes from at most nproc clients or workers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
	tracedir string
}

// workload is one user-facing way of running the program. A run
// prepares inputs (untimed), sets the system up several times (the
// median is setup_s; the last instance serves the load), drives the
// load phase for the run length, and checks every output.
type workload interface {
	// prepare generates the inputs and everything the checks need.
	prepare(o options) error
	// setup stops any previous instance, then builds or boots the
	// system under test and returns how long it took to become ready.
	setup() (time.Duration, error)
	// load drives the ready system until the deadline passes and
	// returns what the clients saw. rec is nil on untraced runs.
	load(ctx context.Context, d time.Duration, rec *recorder) (*phase, error)
	// close stops the system under test and waits for it.
	close()
}

// workloads maps the names the benchmark accepts to constructors.
var workloads = map[string]func() workload{
	"map_batch":    func() workload { return &mapBatch{} },
	"serve_map":    func() workload { return &serveMap{} },
	"assemble_job": func() workload { return &assembleJob{} },
}

func main() {
	var o options
	var secs float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&secs, "seconds", 30, "load-phase length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for generated files")
	flag.StringVar(&o.tracedir, "tracedir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	o.seconds = time.Duration(secs * float64(time.Second))
	o.trace = trace == 1
	mk, ok := workloads[o.workload]
	if !ok || secs <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: --workload %v --seed N --seconds S --trace 0|1\n", names)
		os.Exit(2)
	}
	res, err := run(o, mk())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: encoding result: %v\n", o.workload, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload end to end and assembles its result.
func run(o options, w workload) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.workdir = dir
	if err := w.prepare(o); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	defer w.close()
	cur, peak := rssMiB()
	fmt.Fprintf(os.Stderr, "inputs ready: rss %.0f MiB, peak %.0f MiB\n", cur, peak)
	resetPeakRSS()
	if o.trace {
		return runTraced(o, w)
	}
	// The first set-up serves the load phase. The remaining set-ups run
	// after it, so peak_rss_mb sees one instance of the system: an
	// instance the program cannot unmap (a server has no Close) would
	// otherwise stay resident through the load.
	first, err := timeSetups(w, nil, 1)
	if err != nil {
		return nil, err
	}
	cpu0, steal0 := cpuClock()
	ph, err := w.load(context.Background(), o.seconds, nil)
	if err != nil {
		return nil, fmt.Errorf("load phase: %w", err)
	}
	cpu1, steal1 := cpuClock()
	fmt.Fprintf(os.Stderr, "%s: %d units in %.2f s, p50 %.1f ms, max %.1f ms; %d jobs, p50 %.3f s; cpu %.2f s, host steal %.2f s\n",
		o.workload, len(ph.units), ph.wall.Seconds(), ms(quantile(ph.units, 0.5)), ms(quantile(ph.units, 1)),
		len(ph.passes), quantile(ph.passes, 0.5).Seconds(), (cpu1 - cpu0).Seconds(), (steal1 - steal0).Seconds())
	_, peak = rssMiB()
	rest, err := timeSetups(w, nil, setupRepeats-1)
	if err != nil {
		return nil, err
	}
	if ph.checkErr != nil {
		fmt.Fprintf(os.Stderr, "check failed: %v\n", ph.checkErr)
	}
	return &result{
		Correct:   ph.checkErr == nil,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   endToEnd(ph, quantile(append(first, rest...), 0.5), peak),
	}, nil
}

// setupRepeats is how many times a run sets the system up; setup_s is
// the median, so one slow boot on a shared host does not move it.
// Servers are not set up more often: each boot maps the index again
// and no server can unmap it.
const setupRepeats = 5

// timeSetups sets the system up n times and returns each set-up's
// time to ready.
func timeSetups(w workload, rec *recorder, n int) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < n; i++ {
		sp := rec.start(fmt.Sprintf("setup-%d", i), "setup")
		d, err := w.setup()
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, d)
	}
	return ds, nil
}
