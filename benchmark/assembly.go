package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"darwin/internal/dna"
	"darwin/internal/genome"
	"darwin/internal/jobs"
	"darwin/internal/readsim"
)

// Assembly inputs: a small genome at ~8x coverage, so one contig is
// the norm and N50 varies little by seed (at 6x, 150 reads of a 60 kbp
// genome, one seed in two broke into 2-3 contigs and N50 spread 31%
// over ten seeds), while a job still runs several seconds.
const (
	asmGenomeLen = 30_000
	asmReads     = 100
	asmReadLen   = 2500
	// kmerCheck is the k of the genome k-mer recall check.
	kmerCheck = 21
	// jobPoll is how often the benchmark polls Get for a job's state.
	jobPoll = 10 * time.Millisecond
	// minJobs is the fewest jobs a run completes: job_s is a median,
	// and the contig hash is compared across jobs of one seed.
	minJobs = 3
)

// assembleJob submits assembly jobs to a jobs.Manager one after
// another, each over the same seeded read set, polling Get until the
// job is terminal and reading its contig FASTA.
type assembleJob struct {
	genome  dna.Seq
	recs    []dna.Record
	dir     string
	log     *slog.Logger
	setups  int
	mgr     *jobs.Manager
	refHash string
}

func (w *assembleJob) prepare(o options) error {
	g, err := genome.Generate(genome.Config{Length: asmGenomeLen, GC: 0.45, Seed: o.seed})
	if err != nil {
		return err
	}
	reads, err := readsim.SimulateN(g.Seq, asmReads, readsim.Config{
		Profile: readsim.PacBio, MeanLen: asmReadLen, LenSpread: 0.1, Seed: o.seed + 7919,
	})
	if err != nil {
		return err
	}
	w.genome = g.Seq
	w.recs = make([]dna.Record, len(reads))
	for i, r := range reads {
		w.recs[i] = dna.Record{Name: r.Name, Seq: r.Seq}
	}
	w.dir = o.workdir
	w.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	return nil
}

// setupsPerSample is how many managers one timed set-up starts. A
// manager starts in about 50 µs, where one slow syscall would
// dominate, so a set-up sample is the mean over this many.
const setupsPerSample = 40

// setup starts managers as darwind does at boot: New, then Recover,
// each on its own empty jobs directory. The directories are made
// beforehand, untimed, as a deployment's -jobs-dir already exists
// when darwind restarts; creating one is a journaled filesystem write
// whose cost follows the host's disk load. The last manager serves
// the load; the others are drained untimed.
func (w *assembleJob) setup() (time.Duration, error) {
	w.close()
	dirs := make([]string, setupsPerSample)
	for i := range dirs {
		w.setups++
		dirs[i] = filepath.Join(w.dir, fmt.Sprintf("jobs-%d", w.setups))
		if err := os.Mkdir(dirs[i], 0o755); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	var total time.Duration
	for _, dir := range dirs {
		w.close()
		start := time.Now()
		m, err := jobs.New(jobs.Config{Dir: dir, Logger: w.log})
		if err != nil {
			return 0, err
		}
		_, err = m.Recover()
		total += time.Since(start)
		w.mgr = m
		if err != nil {
			return 0, err
		}
	}
	return total / setupsPerSample, nil
}

func (w *assembleJob) close() {
	if w.mgr == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.mgr.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "draining jobs: %v\n", err)
	}
	w.mgr = nil
}

func (w *assembleJob) load(ctx context.Context, d time.Duration, rec *recorder) (*phase, error) {
	ph := &phase{lanes: 1, tailQ: 0.9, extra: map[string]float64{}}
	var queue time.Duration
	start := time.Now()
	for u := 0; u < minJobs || time.Since(start) < d; u++ {
		sp := rec.start(fmt.Sprintf("job-%d", u), "job assemble")
		t0 := time.Now()
		st, fasta, err := w.runJob(ctx)
		lat := time.Since(t0)
		sp.SetLabel("job_id", st.ID)
		sp.End()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		ph.attempted++
		ph.units = append(ph.units, lat)
		ph.passes = append(ph.passes, lat)
		if err == nil {
			err = w.check(st, fasta, ph)
		}
		if err != nil {
			ph.failed++
			if ph.checkErr == nil {
				ph.checkErr = fmt.Errorf("job %d (%s): %w", u, st.ID, err)
			}
			continue
		}
		ph.reads += int64(st.Reads)
		ph.useful += int64(st.Result.Overlaps)
		if st.StartedAt != nil {
			queue += st.StartedAt.Sub(st.CreatedAt)
		}
	}
	ph.wall = time.Since(start)
	if ok := ph.attempted - ph.failed; ok > 0 {
		ph.extra["queue_s"] = queue.Seconds() / float64(ok)
	}
	return ph, nil
}

// runJob submits one job, polls it to a terminal state, and reads the
// contig FASTA of a finished job.
func (w *assembleJob) runJob(ctx context.Context) (jobs.Status, []byte, error) {
	st, err := w.mgr.Submit(jobs.KindAssemble, w.recs, jobs.DefaultParams())
	if err != nil {
		return st, nil, err
	}
	tick := time.NewTicker(jobPoll)
	defer tick.Stop()
	for !st.State.Terminal() {
		select {
		case <-ctx.Done():
			return st, nil, ctx.Err()
		case <-tick.C:
		}
		if st, err = w.mgr.Get(st.ID); err != nil {
			return st, nil, err
		}
	}
	if st.State != jobs.StateDone {
		return st, nil, fmt.Errorf("job ended %s: %s", st.State, st.Error)
	}
	path, _, err := w.mgr.ResultFile(st.ID)
	if err != nil {
		return st, nil, err
	}
	fasta, err := os.ReadFile(path)
	return st, fasta, err
}

// check validates a finished job's contigs: identical bytes on every
// job of the run, a sane count and total length against the genome,
// and N50 and k-mer recall as accuracy guards.
func (w *assembleJob) check(st jobs.Status, fasta []byte, ph *phase) error {
	sum := sha256.Sum256(fasta)
	h := hex.EncodeToString(sum[:])
	if w.refHash != "" {
		if h != w.refHash {
			return fmt.Errorf("contig bytes hash %s, first job %s", h[:12], w.refHash[:12])
		}
		return nil
	}
	recs, err := dna.ReadFASTA(bytes.NewReader(fasta))
	if err != nil {
		return fmt.Errorf("parsing contigs: %w", err)
	}
	lengths := make([]int, len(recs))
	total := 0
	for i, r := range recs {
		lengths[i] = len(r.Seq)
		total += len(r.Seq)
	}
	if len(recs) == 0 || len(recs) > 10 || total < asmGenomeLen*8/10 || total > asmGenomeLen*13/10 {
		return fmt.Errorf("%d contigs totalling %d bp for a %d bp genome", len(recs), total, asmGenomeLen)
	}
	if st.Result == nil || st.Result.Contigs != len(recs) {
		return fmt.Errorf("job result reports %+v, file holds %d contigs", st.Result, len(recs))
	}
	w.refHash = h
	fmt.Fprintf(os.Stderr, "assemble_job: %d contigs, %d bp, sha256 %s\n", len(recs), total, h)
	ph.n50 = n50(lengths)
	ph.accuracy = kmerRecall(w.genome, recs, kmerCheck)
	return nil
}

// kmerRecall returns the share of the genome's distinct canonical
// k-mers (k ≤ 31) found in the contigs: coverage and consensus
// accuracy in one deterministic number.
func kmerRecall(g dna.Seq, contigs []dna.Record, k int) float64 {
	have := make(map[uint64]struct{})
	for _, c := range contigs {
		forEachKmer(c.Seq, k, func(x uint64) { have[x] = struct{}{} })
	}
	want := make(map[uint64]struct{})
	found := 0
	forEachKmer(g, k, func(x uint64) {
		if _, dup := want[x]; dup {
			return
		}
		want[x] = struct{}{}
		if _, ok := have[x]; ok {
			found++
		}
	})
	if len(want) == 0 {
		return 0
	}
	return float64(found) / float64(len(want))
}

// forEachKmer calls fn with the 2-bit canonical code (the smaller of
// forward and reverse complement) of every k-mer free of N.
func forEachKmer(s dna.Seq, k int, fn func(uint64)) {
	mask := uint64(1)<<(2*k) - 1
	var fwd, rev uint64
	valid := 0
	for _, b := range s {
		var c uint64
		switch b {
		case 'A':
			c = 0
		case 'C':
			c = 1
		case 'G':
			c = 2
		case 'T':
			c = 3
		default:
			valid = 0
			continue
		}
		fwd = (fwd<<2 | c) & mask
		rev = rev>>2 | (3-c)<<(2*(k-1))
		if valid++; valid >= k {
			fn(min(fwd, rev))
		}
	}
}
