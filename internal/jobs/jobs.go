// Package jobs runs the assembly pipeline as an asynchronous, durable
// service workload: clients submit a read set and get back a job ID
// they poll for per-stage progress and eventually stream results from.
// Jobs execute through a bounded executor, and the overlap stage — the
// dominant cost, per the paper's de novo accounting — writes periodic
// CRC-protected checkpoints, so a SIGTERM drain or crash resumes from
// the last read boundary instead of restarting, with output
// bit-identical to an uninterrupted run (the core overlap pass is
// deterministic in read order and deduplication).
//
// On-disk layout, one directory per job under the manager root:
//
//	<dir>/<id>/job.json        status snapshot (state is the commit point)
//	<dir>/<id>/reads.fa        submitted payload
//	<dir>/<id>/checkpoint.dwc  latest overlap checkpoint (see checkpoint.go)
//	<dir>/<id>/result.ndjson   overlap-kind result stream
//	<dir>/<id>/result.fa       assemble-kind contig FASTA
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/faults"
	"darwin/internal/obs"
	"darwin/internal/olc"
)

var (
	cSubmitted   = obs.Default.Counter("jobs/submitted")
	cCompleted   = obs.Default.Counter("jobs/completed")
	cFailed      = obs.Default.Counter("jobs/failed")
	cCanceled    = obs.Default.Counter("jobs/canceled")
	cResumed     = obs.Default.Counter("jobs/resumed")
	cCkptWritten = obs.Default.Counter("jobs/checkpoints_written")
	cCkptErrors  = obs.Default.Counter("jobs/checkpoint_errors")
	cCkptCorrupt = obs.Default.Counter("jobs/checkpoint_corrupt")
	gRunning     = obs.Default.Gauge("jobs/running")
	gPending     = obs.Default.Gauge("jobs/pending")

	// jobs/checkpoint fires on every checkpoint write attempt; an
	// injected error exercises the best-effort path (the write is
	// skipped and counted, the job keeps running).
	fpCheckpoint = faults.Default.Point("jobs/checkpoint")
)

// Kind is the pipeline a job runs.
type Kind string

const (
	// KindOverlap runs only the all-vs-all overlap stage.
	KindOverlap Kind = "overlap"
	// KindAssemble runs the full overlap-layout-consensus pipeline.
	KindAssemble Kind = "assemble"
)

// State is a job's lifecycle state. pending and running survive a
// restart (Recover resumes them); done, failed, and canceled are
// terminal.
type State string

const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Params are the resolved pipeline parameters a job runs with —
// resolved, because job.json must replay them exactly on resume.
type Params struct {
	MinOverlap   int    `json:"min_overlap"`
	PolishRounds int    `json:"polish_rounds"`
	MinContig    int    `json:"min_contig"`
	Reorder      string `json:"reorder"`
}

// DefaultParams mirrors the assembly CLI defaults.
func DefaultParams() Params {
	return Params{MinOverlap: 1000, PolishRounds: 2, Reorder: "off"}
}

// StageProgress is one pipeline stage's progress counter.
type StageProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// ResultMeta summarizes a finished job's output.
type ResultMeta struct {
	Overlaps int                `json:"overlaps,omitempty"`
	Contigs  int                `json:"contigs,omitempty"`
	TotalLen int                `json:"total_len,omitempty"`
	N50      int                `json:"n50,omitempty"`
	Reorder  *olc.ReorderReport `json:"reorder,omitempty"`
}

// Status is a job's externally visible snapshot; it is also the
// persisted job.json document.
type Status struct {
	ID          string                   `json:"id"`
	Kind        Kind                     `json:"kind"`
	State       State                    `json:"state"`
	Reads       int                      `json:"reads"`
	Params      Params                   `json:"params"`
	CreatedAt   time.Time                `json:"created_at"`
	StartedAt   *time.Time               `json:"started_at,omitempty"`
	FinishedAt  *time.Time               `json:"finished_at,omitempty"`
	Error       string                   `json:"error,omitempty"`
	ErrorCode   string                   `json:"error_code,omitempty"`
	Stages      map[string]StageProgress `json:"stages,omitempty"`
	Resumed     bool                     `json:"resumed,omitempty"`
	ResumeRead  int                      `json:"resume_read,omitempty"`
	Checkpoints int                      `json:"checkpoints"`
	Result      *ResultMeta              `json:"result,omitempty"`
}

// clone deep-copies the snapshot (the stages map is the only shared
// structure).
func (s Status) clone() Status {
	if s.Stages != nil {
		m := make(map[string]StageProgress, len(s.Stages))
		for k, v := range s.Stages {
			m[k] = v
		}
		s.Stages = m
	}
	if s.Result != nil {
		r := *s.Result
		s.Result = &r
	}
	return s
}

// Sentinel errors the HTTP layer maps to structured envelope codes.
var (
	ErrNotFound  = errors.New("jobs: job not found")
	ErrDraining  = errors.New("jobs: manager is draining")
	ErrQueueFull = errors.New("jobs: too many active jobs")
)

// Config sizes a Manager.
type Config struct {
	// Dir is the persistence root (required; created if absent).
	Dir string
	// Concurrency bounds simultaneously executing jobs (default 1 —
	// one all-vs-all pass saturates the engine's own parallelism).
	Concurrency int
	// CheckpointEvery is the overlap-stage checkpoint cadence in reads
	// (default 16).
	CheckpointEvery int
	// MaxActive bounds non-terminal jobs (default 16).
	MaxActive int
	// Logger receives job lifecycle logs (default slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 16
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 16
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// job is the in-memory half of one job.
type job struct {
	mu           sync.Mutex
	st           Status
	reads        []dna.Seq
	fingerprint  uint64
	cancel       context.CancelFunc
	userCanceled bool
}

// Manager owns the job set: submission, the bounded executor,
// persistence, recovery, and drain.
type Manager struct {
	cfg Config
	log *slog.Logger

	mu   sync.Mutex
	jobs map[string]*job

	sem      chan struct{}
	wg       sync.WaitGroup
	baseCtx  context.Context
	stopJobs context.CancelFunc
	draining bool
}

// New creates a Manager rooted at cfg.Dir. Call Recover to resume
// jobs a previous process left behind.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobs: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:      cfg,
		log:      cfg.Logger,
		jobs:     make(map[string]*job),
		sem:      make(chan struct{}, cfg.Concurrency),
		baseCtx:  ctx,
		stopJobs: cancel,
	}, nil
}

// dirOf returns a job's directory.
func (m *Manager) dirOf(id string) string { return filepath.Join(m.cfg.Dir, id) }

// Submit persists a new job and enqueues it on the bounded executor.
func (m *Manager) Submit(kind Kind, recs []dna.Record, p Params) (Status, error) {
	if kind != KindOverlap && kind != KindAssemble {
		return Status{}, fmt.Errorf("jobs: unknown kind %q", kind)
	}
	if len(recs) == 0 {
		return Status{}, fmt.Errorf("jobs: empty read set")
	}
	if _, err := olc.ParseReorderMode(p.Reorder); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return Status{}, ErrDraining
	}
	active := 0
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.st.State.Terminal() {
			active++
		}
		j.mu.Unlock()
	}
	if active >= m.cfg.MaxActive {
		m.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	m.mu.Unlock()

	id := "j" + obs.NewRequestID()
	dir := m.dirOf(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Status{}, err
	}
	pf, err := os.Create(filepath.Join(dir, "reads.fa"))
	if err != nil {
		return Status{}, err
	}
	if err := dna.WriteFASTA(pf, recs); err != nil {
		pf.Close()
		return Status{}, err
	}
	if err := pf.Close(); err != nil {
		return Status{}, err
	}

	seqs := make([]dna.Seq, len(recs))
	for i := range recs {
		seqs[i] = recs[i].Seq
	}
	j := &job{
		st: Status{
			ID: id, Kind: kind, State: StatePending, Reads: len(recs),
			Params: p, CreatedAt: time.Now().UTC(),
			Stages: map[string]StageProgress{},
		},
		reads:       seqs,
		fingerprint: ReadsFingerprint(seqs),
	}
	if err := m.persist(j); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	m.jobs[id] = j
	m.mu.Unlock()
	cSubmitted.Inc()
	gPending.Add(1)
	m.log.Info("job submitted", "job", id, "kind", kind, "reads", len(recs))
	m.start(j, nil)
	return j.snapshot(), nil
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.snapshot(), nil
}

// List returns all known jobs, newest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshot())
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].CreatedAt.Equal(out[b].CreatedAt) {
			return out[a].CreatedAt.After(out[b].CreatedAt)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Cancel requests cancellation. Canceling a terminal job is a no-op
// returning its final status; the executor slot of a running job is
// freed as soon as the pipeline observes the canceled context.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	j.mu.Lock()
	terminal := j.st.State.Terminal()
	if !terminal {
		j.userCanceled = true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if !terminal && cancel != nil {
		cancel()
	}
	return j.snapshot(), nil
}

// ResultFile returns the result stream's path and content type for a
// completed job.
func (m *Manager) ResultFile(id string) (path, contentType string, err error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return "", "", ErrNotFound
	}
	st := j.snapshot()
	if st.State != StateDone {
		return "", "", fmt.Errorf("jobs: job %s is %s, not done", id, st.State)
	}
	switch st.Kind {
	case KindOverlap:
		return filepath.Join(m.dirOf(id), "result.ndjson"), "application/x-ndjson", nil
	default:
		return filepath.Join(m.dirOf(id), "result.fa"), "text/x-fasta", nil
	}
}

// Recover scans the persistence root and restarts every job a prior
// process left pending or running, resuming the overlap stage from its
// checkpoint when one verifies. A corrupt checkpoint fails the job
// with ErrorCode "checkpoint_corrupt" rather than silently recomputing
// — the operator decides whether to resubmit.
func (m *Manager) Recover() (restarted int, err error) {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		st, rerr := readStatus(filepath.Join(m.dirOf(id), "job.json"))
		if rerr != nil {
			m.log.Warn("job recovery: unreadable job.json", "job", id, "err", rerr)
			continue
		}
		j := &job{st: st}
		if j.st.Stages == nil {
			j.st.Stages = map[string]StageProgress{}
		}
		m.mu.Lock()
		m.jobs[id] = j
		m.mu.Unlock()
		if st.State.Terminal() {
			continue
		}
		// Resumable: reload the payload and the checkpoint.
		recs, lerr := readFASTAFile(filepath.Join(m.dirOf(id), "reads.fa"))
		if lerr != nil {
			m.failJob(j, lerr, "")
			continue
		}
		j.reads = make([]dna.Seq, len(recs))
		for i := range recs {
			j.reads[i] = recs[i].Seq
		}
		j.fingerprint = ReadsFingerprint(j.reads)
		var resume *core.OverlapCheckpoint
		ckptPath := filepath.Join(m.dirOf(id), "checkpoint.dwc")
		if _, serr := os.Stat(ckptPath); serr == nil {
			readLens := make([]int, len(j.reads))
			for i, r := range j.reads {
				readLens[i] = len(r)
			}
			c, cerr := ReadCheckpoint(ckptPath, j.fingerprint, readLens)
			if cerr != nil {
				cCkptCorrupt.Inc()
				m.failJob(j, cerr, "checkpoint_corrupt")
				m.log.Warn("job recovery: corrupt checkpoint", "job", id, "err", cerr)
				continue
			}
			resume = c
			j.mu.Lock()
			j.st.Resumed = true
			j.st.ResumeRead = c.NextRead
			j.mu.Unlock()
			cResumed.Inc()
		}
		j.mu.Lock()
		j.st.State = StatePending
		j.mu.Unlock()
		gPending.Add(1)
		if resume != nil {
			m.log.Info("job resumed from checkpoint", "job", id, "next_read", resume.NextRead)
		} else {
			m.log.Info("job restarted from scratch", "job", id)
		}
		m.start(j, resume)
		restarted++
	}
	return restarted, nil
}

// Drain stops accepting jobs, cancels running ones (their final
// checkpoints land at the cancellation boundary), and waits for the
// executor to empty, bounded by ctx.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.stopJobs()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain timed out: %w", ctx.Err())
	}
}

// start launches a job's goroutine: wait for an executor slot, run.
// The context is parented on the manager's lifetime, so Drain cancels
// every waiter and runner at once.
func (m *Manager) start(j *job, resume *core.OverlapCheckpoint) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		select {
		case m.sem <- struct{}{}:
		case <-ctx.Done():
			gPending.Add(-1)
			m.finishInterrupted(j)
			return
		}
		defer func() { <-m.sem }()
		gPending.Add(-1)
		gRunning.Add(1)
		defer gRunning.Add(-1)
		m.execute(ctx, j, resume)
	}()
}

// execute runs the pipeline for one job that holds an executor slot.
func (m *Manager) execute(ctx context.Context, j *job, resume *core.OverlapCheckpoint) {
	j.mu.Lock()
	now := time.Now().UTC()
	j.st.State = StateRunning
	j.st.StartedAt = &now
	id, kind, p := j.st.ID, j.st.Kind, j.st.Params
	reads := j.reads
	j.mu.Unlock()
	if err := m.persist(j); err != nil {
		m.failJob(j, err, "")
		return
	}

	// The job ID is the request identity of the whole execution: the
	// span tree and every log line carry it, exactly as X-Request-ID
	// rides a map request.
	span := obs.NewRequestSpan(id, "job "+string(kind))
	span.SetLabel("job_id", id)
	span.SetLabel("kind", string(kind))
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)

	mode, _ := olc.ParseReorderMode(p.Reorder)
	opts := []olc.Option{
		olc.WithMinOverlap(p.MinOverlap),
		olc.WithPolishRounds(p.PolishRounds),
		olc.WithMinContig(p.MinContig),
		olc.WithReorder(mode),
		olc.WithProgress(func(stage string, done, total int) {
			j.mu.Lock()
			j.st.Stages[stage] = StageProgress{Done: done, Total: total}
			j.mu.Unlock()
		}),
		olc.WithCheckpoint(m.cfg.CheckpointEvery, resume, m.saver(j)),
	}

	var err error
	var meta ResultMeta
	switch kind {
	case KindOverlap:
		var ovs []core.Overlap
		ovs, _, err = olc.Overlap(ctx, reads, opts...)
		if err == nil {
			meta.Overlaps = len(ovs)
			err = writeOverlapResult(filepath.Join(m.dirOf(id), "result.ndjson"), ovs)
		}
	case KindAssemble:
		var asm *olc.Assembly
		asm, err = olc.Assemble(ctx, reads, opts...)
		if err == nil {
			meta.Overlaps = len(asm.Overlaps)
			meta.Contigs = len(asm.Contigs)
			meta.TotalLen = asm.Stats.TotalLen
			meta.N50 = asm.Stats.N50
			meta.Reorder = asm.Reorder
			err = writeFASTAFile(filepath.Join(m.dirOf(id), "result.fa"), asm.Contigs)
		}
	}

	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			m.finishInterrupted(j)
			return
		}
		m.failJob(j, err, "")
		return
	}

	j.mu.Lock()
	fin := time.Now().UTC()
	j.st.State = StateDone
	j.st.FinishedAt = &fin
	j.st.Result = &meta
	j.reads = nil
	j.mu.Unlock()
	cCompleted.Inc()
	if perr := m.persist(j); perr != nil {
		m.log.Error("job done but status persist failed", "job", id, "err", perr)
	}
	m.log.Info("job done", "job", id, "kind", kind)
}

// finishInterrupted resolves a job whose context was canceled: a user
// cancel becomes terminal state canceled; a drain leaves the persisted
// state running/pending so the next process's Recover resumes it.
func (m *Manager) finishInterrupted(j *job) {
	j.mu.Lock()
	user := j.userCanceled
	if user {
		now := time.Now().UTC()
		j.st.State = StateCanceled
		j.st.FinishedAt = &now
		j.reads = nil
	}
	id := j.st.ID
	j.mu.Unlock()
	if user {
		cCanceled.Inc()
		if err := m.persist(j); err != nil {
			m.log.Error("canceled job persist failed", "job", id, "err", err)
		}
		m.log.Info("job canceled", "job", id)
	} else {
		m.log.Info("job interrupted by drain, checkpoint retained", "job", id)
	}
}

// failJob moves a job to failed with an optional structured code.
func (m *Manager) failJob(j *job, err error, code string) {
	if code == "" && IsCheckpointError(err) {
		code = "checkpoint_corrupt"
	}
	j.mu.Lock()
	now := time.Now().UTC()
	j.st.State = StateFailed
	j.st.FinishedAt = &now
	j.st.Error = err.Error()
	j.st.ErrorCode = code
	id := j.st.ID
	j.reads = nil
	j.mu.Unlock()
	cFailed.Inc()
	if perr := m.persist(j); perr != nil {
		m.log.Error("failed job persist failed", "job", id, "err", perr)
	}
	m.log.Warn("job failed", "job", id, "err", err)
}

// saver returns the overlap checkpoint callback for one job:
// best-effort (a write failure is counted and logged, never fatal) and
// fault-injectable at jobs/checkpoint.
func (m *Manager) saver(j *job) func(core.OverlapCheckpoint) error {
	path := filepath.Join(m.dirOf(j.st.ID), "checkpoint.dwc")
	return func(c core.OverlapCheckpoint) error {
		if err := fpCheckpoint.Fire(); err != nil {
			cCkptErrors.Inc()
			m.log.Warn("checkpoint write skipped", "job", j.st.ID, "err", err)
			return nil
		}
		if err := WriteCheckpoint(path, j.fingerprint, c); err != nil {
			cCkptErrors.Inc()
			m.log.Warn("checkpoint write failed", "job", j.st.ID, "err", err)
			return nil
		}
		cCkptWritten.Inc()
		j.mu.Lock()
		j.st.Checkpoints++
		j.mu.Unlock()
		return nil
	}
}

// persist atomically writes the job's status snapshot to job.json.
func (m *Manager) persist(j *job) error {
	st := j.snapshot()
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(m.dirOf(st.ID), "job.json"), data)
}

func (j *job) snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.clone()
}

// writeFileAtomic writes via temp-file + rename in path's directory.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func readStatus(path string) (Status, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Status{}, err
	}
	var st Status
	if err := json.Unmarshal(data, &st); err != nil {
		return Status{}, err
	}
	return st, nil
}

func readFASTAFile(path string) ([]dna.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dna.ReadFASTA(f)
}

func writeFASTAFile(path string, recs []dna.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dna.WriteFASTA(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overlapLine is the NDJSON result record for one overlap.
type overlapLine struct {
	Target      int  `json:"target"`
	Query       int  `json:"query"`
	QueryRev    bool `json:"query_rev"`
	TargetStart int  `json:"target_start"`
	TargetEnd   int  `json:"target_end"`
	QueryStart  int  `json:"query_start"`
	QueryEnd    int  `json:"query_end"`
	Score       int  `json:"score"`
}

func writeOverlapResult(path string, ovs []core.Overlap) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range ovs {
		o := &ovs[i]
		if err := enc.Encode(overlapLine{
			Target: o.Target, Query: o.Query, QueryRev: o.QueryRev,
			TargetStart: o.TargetStart, TargetEnd: o.TargetEnd,
			QueryStart: o.QueryStart, QueryEnd: o.QueryEnd, Score: o.Score,
		}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
