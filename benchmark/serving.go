package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/indexio"
	"darwin/internal/obs"
	"darwin/internal/server"
)

// requestReads is the reads per /v1/map request, darwin-client's
// default batch.
const requestReads = 4

// traceCapture is how many request span trees a traced run's darwind
// keeps: more than both load phases of a run send, so none is evicted.
const traceCapture = 1 << 15

// serveMap drives one darwind's /v1/map as darwin-client does in
// closed loop: each job is one client run of jobReads reads, nproc
// clients starting together and sending the next request as soon as
// a reply arrives. The server warms from a monolithic .dwi of the
// reference and serves on a loopback listener.
type serveMap struct {
	in    *mapInputs
	trace bool
	fasta string
	index string
	// indexBytes is the .dwi file's size, the index.bytes layer metric.
	indexBytes int64
	// expected holds each pool read's SAM lines and outcome from the
	// engine mapping it in-process.
	expected [][]string
	outcome  []readOutcome
	log      *slog.Logger

	srv  *server.Server
	hs   *http.Server
	done chan struct{} // closed when hs has stopped serving
	url  string
}

func (w *serveMap) prepare(o options) error {
	in, err := makeMapInputs(o.seed)
	if err != nil {
		return err
	}
	w.in = in
	w.trace = o.trace
	w.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	w.fasta = filepath.Join(o.workdir, "ref.fa")
	if err := writeFASTA(w.fasta, in.recs); err != nil {
		return err
	}
	w.index = filepath.Join(o.workdir, "ref.dwi")
	if _, err := indexio.WriteFile(w.index, in.recs, in.cfg, core.ShardSpec{}); err != nil {
		return fmt.Errorf("writing index: %w", err)
	}
	st, err := os.Stat(w.index)
	if err != nil {
		return err
	}
	w.indexBytes = st.Size()
	// The bit-identity reference: the engine mapping the same reads
	// in-process, emitted through the server's own RecordsFor.
	eng, ref, err := core.NewMulti(in.recs, in.cfg)
	if err != nil {
		return err
	}
	res, err := eng.Map(context.Background(), in.seqs, core.WithWorkers(nproc()))
	if err != nil {
		return err
	}
	w.expected = make([][]string, len(res))
	w.outcome = make([]readOutcome, len(res))
	for i, r := range res {
		if r.Err != nil {
			return fmt.Errorf("in-process reference for %s: %w", in.reads[i].Name, r.Err)
		}
		for _, rec := range server.RecordsFor(ref, in.reads[i].Name, in.seqs[i], r.Alignments, false) {
			w.expected[i] = append(w.expected[i], rec.Line())
		}
		w.outcome[i] = alignmentOutcome(r.Alignments)
	}
	return nil
}

// setup boots a darwind as cmd/darwind does: New, Warm from the .dwi,
// then a listener.
func (w *serveMap) setup() (time.Duration, error) {
	w.close()
	runtime.GC()
	cfg := server.Config{
		DefaultRef:     w.fasta,
		DefaultIndex:   w.index,
		DisableSidecar: true,
		Core:           w.in.cfg,
		Logger:         w.log,
	}
	if w.trace {
		// The server builds every request's span tree anyway; a traced
		// run keeps them all, not just the slowest few.
		cfg.SlowCapture = traceCapture
	}
	start := time.Now()
	srv := server.New(cfg)
	w.srv = srv
	if err := srv.Warm(context.Background()); err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	w.url = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: srv.Handler()}
	w.done = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		hs.Serve(ln)
	}(w.hs, w.done)
	return time.Since(start), nil
}

// close stops serving, waits for the listener loop to return, and
// drains the server's batcher.
func (w *serveMap) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if w.hs != nil {
		w.hs.Shutdown(ctx)
		<-w.done
		w.hs = nil
	}
	if err := w.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "draining darwind: %v\n", err)
	}
	w.srv = nil
}

func (w *serveMap) load(ctx context.Context, d time.Duration, rec *recorder) (*phase, error) {
	lanes := nproc()
	tr := &http.Transport{MaxIdleConnsPerHost: lanes}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	ph := &phase{lanes: lanes, tailQ: 0.95, extra: map[string]float64{"index_bytes": float64(w.indexBytes)}}
	oc := newOutcomes(w.in.reads)
	prefix := "bench"
	if rec != nil {
		prefix = "trace"
	}
	walls := make(map[string]time.Duration)
	var mu sync.Mutex
	start := time.Now()
	for job := 0; time.Since(start) < d; job++ {
		// One darwin-client run: the clients start together and take
		// the job's requests from a shared counter until all are sent.
		base := (job * jobReads) % poolReads
		var next atomic.Int64
		var wg sync.WaitGroup
		j0 := time.Now()
		for lane := 0; lane < lanes; lane++ {
			wg.Add(1)
			go func(lane int) {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					if k >= jobReads/requestReads {
						return
					}
					first := base + k*requestReads
					id := fmt.Sprintf("%s-%d-%d", prefix, job, k)
					sp := rec.start(id, "http POST /v1/map")
					sp.SetLabel("lane", fmt.Sprint(lane))
					t0 := time.Now()
					body, status, err := w.post(ctx, client, id, first)
					lat := time.Since(t0)
					sp.End()
					if err == nil {
						err = w.check(body, status, first)
					}
					mu.Lock()
					ph.attempted++
					ph.units = append(ph.units, lat)
					if rec != nil {
						walls[id] = lat
					}
					if err != nil {
						ph.failed++
						if ph.checkErr == nil {
							ph.checkErr = fmt.Errorf("request %s: %w", id, err)
						}
					} else {
						for j := first; j < first+requestReads; j++ {
							oc.seen[j] = w.outcome[j]
							ph.reads++
							if w.outcome[j].mapped {
								ph.useful++
							}
						}
					}
					mu.Unlock()
				}
			}(lane)
		}
		wg.Wait()
		ph.passes = append(ph.passes, time.Since(j0))
	}
	ph.wall = time.Since(start)
	ph.accuracy, ph.n50 = oc.accuracy()
	if ph.accuracy < minMappedCorrect && ph.checkErr == nil {
		ph.checkErr = fmt.Errorf("mapped_correct_frac %.3f below %.2f", ph.accuracy, minMappedCorrect)
	}
	if ph.attempted == 0 {
		return nil, errors.New("no request completed")
	}
	if rec != nil {
		calls, err := w.serverTrees(walls)
		if err != nil {
			return nil, err
		}
		ph.calls = calls
	}
	return ph, nil
}

// serverTrees pairs each traced request with the span tree darwind
// kept for it. The server files a tree just after the reply is
// written, so the last few may still be on their way.
func (w *serveMap) serverTrees(walls map[string]time.Duration) ([]tracedCall, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		trees := make(map[string]obs.SpanSnapshot)
		for _, c := range w.srv.SlowCaptures() {
			if _, ok := walls[c.RequestID]; ok {
				trees[c.RequestID] = c.Span
			}
		}
		if len(trees) == len(walls) {
			calls := make([]tracedCall, 0, len(walls))
			for id, wall := range walls {
				calls = append(calls, tracedCall{wall: wall, program: trees[id]})
			}
			return calls, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("darwind kept span trees for %d of %d traced requests", len(trees), len(walls))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// post sends one /v1/map request for the pool reads starting at first
// and returns the full response body. It never retries.
func (w *serveMap) post(ctx context.Context, client *http.Client, id string, first int) ([]byte, int, error) {
	req := server.MapRequest{Reads: make([]server.ReadInput, requestReads)}
	for j := range req.Reads {
		req.Reads[j] = server.ReadInput{Name: w.in.reads[first+j].Name, Seq: w.in.seqs[first+j]}
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/map", bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-ID", id)
	resp, err := client.Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// check validates one NDJSON response: HTTP 200, one line per read in
// request order, no error lines, and SAM records byte-identical to the
// in-process monolithic engine's.
func (w *serveMap) check(body []byte, status, first int) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		j := lines
		if j == requestReads {
			return errors.New("more response lines than reads")
		}
		var line server.MapResponseLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("line %d: %w", j, err)
		}
		name := w.in.reads[first+j].Name
		if line.Read != name || line.Error != "" {
			return fmt.Errorf("line %d: read %q error %q, want read %q", j, line.Read, line.Error, name)
		}
		got := make([]string, len(line.Records))
		for k, r := range line.Records {
			got[k] = r.Line()
		}
		if strings.Join(got, "\n") != strings.Join(w.expected[first+j], "\n") {
			return fmt.Errorf("read %s: SAM differs from in-process MapRead", name)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if lines != requestReads {
		return fmt.Errorf("%d response lines for %d reads", lines, requestReads)
	}
	return nil
}

func writeFASTA(path string, recs []dna.Record) error {
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
