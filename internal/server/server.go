package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"diag/internal/diagerr"
	"diag/internal/exp"
)

// Config parameterizes a Server. The zero value is production-shaped:
// GOMAXPROCS simulation workers, 16-job batches flushed within 2ms,
// a 1024-entry result cache, and per-run observability on.
type Config struct {
	// Workers bounds concurrently executing simulations (<= 0:
	// GOMAXPROCS). Campaign-internal parallelism is bounded separately
	// by each request's parallel field.
	Workers int
	// BatchSize is the max jobs per batch flush (default 16).
	BatchSize int
	// BatchWait is the max time a submission waits for its batch to
	// fill before a partial flush (default 2ms).
	BatchWait time.Duration
	// QueueDepth is the intake queue capacity; a full queue rejects
	// submissions with 503 (default 1024).
	QueueDepth int
	// CacheEntries bounds the result cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// JobTimeout bounds one simulation's wall clock, including its wait
	// for a worker slot (0 = unbounded).
	JobTimeout time.Duration
	// Observe attaches an obsv.Registry to every timing-machine run and
	// folds the event counters into /metrics (default on; set
	// NoObserve to disable).
	NoObserve bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.BatchWait == 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	return c
}

// flight is one in-progress simulation and every job waiting on it.
// Jobs attach when their key matches a flight already in the air
// (coalescing); all attached jobs complete from the one result.
type flight struct {
	spec *Spec
	jobs []*Job // guarded by the server mutex
}

// Server is the simulation service: an HTTP handler plus the batcher,
// cache, worker pool, and job store behind it.
type Server struct {
	cfg Config
	m   *metrics
	b   *batcher
	sem chan struct{} // worker slots for simulations

	ctx    context.Context // cancelled only by a hard drain-timeout stop
	cancel context.CancelFunc
	wg     sync.WaitGroup // in-flight batch executions

	mu       sync.Mutex
	draining bool
	nextID   int
	jobs     map[string]*Job
	order    []string // job IDs in submission order
	cache    *resultCache
	inflight map[cacheKey]*flight
}

// New builds a Server; call Start before serving, and Drain on the way
// out.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		m:        newMetrics(),
		sem:      make(chan struct{}, cfg.Workers),
		ctx:      ctx,
		cancel:   cancel,
		jobs:     make(map[string]*Job),
		cache:    newResultCache(cfg.CacheEntries),
		inflight: make(map[cacheKey]*flight),
	}
	s.b = newBatcher(cfg.QueueDepth, cfg.BatchSize, cfg.BatchWait, s.runBatch)
	return s
}

// Start launches the batch collector. Separate from New so tests can
// assemble a server without goroutines.
func (s *Server) Start() { go s.b.run() }

// Metrics exposes the server's metric store (tests and the /metrics
// handler).
func (s *Server) Metrics() *metrics { return s.m }

// Drain performs the graceful shutdown sequence: stop accepting
// submissions (503), flush the batcher, and wait for every in-flight
// simulation to finish. If ctx expires first, in-flight work is
// cancelled hard and Drain returns ctx's error once the workers have
// unwound.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.b.close()
	}
	<-s.b.done // collector exited; every queued submission was flushed

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.cancel() // hard-cancel in-flight simulations
		<-finished
		return ctx.Err()
	}
}

// Handler returns the server's routed HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.instrument(mux)
}

// instrument counts requests and 4xx responses around the mux.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.inc(mRequests, 1)
		cw := &codeWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(cw, r)
		if cw.code >= 400 && cw.code < 500 {
			s.m.inc(mBadRequests, 1)
		}
	})
}

type codeWriter struct {
	http.ResponseWriter
	code int
}

func (w *codeWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so SSE streaming survives the
// instrumentation layer.
func (w *codeWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON emits v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /api/v1/jobs: validate, register, serve from
// cache if possible, otherwise enqueue for batching. ?wait=DURATION
// blocks until the job is terminal (or the wait expires) before
// responding, so simple clients get submit-and-result in one round
// trip.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		s.m.inc(mRejected, 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting new jobs")
		return
	}

	sp, err := ParseRequest(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			writeError(w, he.code, "%s", he.msg)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	now := time.Now()
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	j := newJob(id, sp, now)
	s.jobs[id] = j
	s.order = append(s.order, id)

	// Cache first: a hit completes the job with zero simulation work.
	if body, ok := s.cache.Get(sp.Key()); ok {
		s.mu.Unlock()
		s.m.inc(mCacheHits, 1)
		s.m.inc(mSubmitted, 1)
		s.m.inc(mJobsDone, 1)
		now := time.Now()
		s.observeJobLatency(j, now)
		j.complete(body, nil, true, now)
		s.respondSubmit(w, r, j, http.StatusOK)
		return
	}
	s.mu.Unlock()
	s.m.inc(mCacheMisses, 1)

	if !s.b.submit(&submission{job: j, spec: sp}) {
		s.m.inc(mRejected, 1)
		j.complete(nil, fmt.Errorf("server overloaded"), false, time.Now())
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "intake queue full; retry later")
		return
	}
	s.m.inc(mSubmitted, 1)
	s.m.gauge(mQueueDepth, int64(s.b.depth()))
	s.respondSubmit(w, r, j, http.StatusAccepted)
}

// respondSubmit renders the submit response, honoring ?wait.
func (s *Server) respondSubmit(w http.ResponseWriter, r *http.Request, j *Job, code int) {
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait duration %q: %v", waitStr, err)
			return
		}
		if s.awaitJob(r, j, d) && code == http.StatusAccepted {
			code = http.StatusOK
		}
	}
	writeJSON(w, code, j.View(time.Now()))
}

// awaitJob blocks until the job is terminal, the wait expires, or the
// client goes away; reports whether the job is terminal.
func (s *Server) awaitJob(r *http.Request, j *Job, d time.Duration) bool {
	const maxWait = 10 * time.Minute
	if d <= 0 || d > maxWait {
		d = maxWait
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.Done():
		return true
	case <-t.C:
	case <-r.Context().Done():
	}
	return false
}

// runBatch is the batcher's flush hook: classify every submission in
// the batch — late cache hit, coalesce onto an in-flight simulation,
// coalesce onto a duplicate earlier in this same batch, or genuinely
// new work — and hand the new flights to the worker pool.
func (s *Server) runBatch(batch []*submission) {
	now := time.Now()
	s.m.inc(mBatches, 1)
	s.m.observe(hBatchSize, int64(len(batch)))
	s.m.gauge(mQueueDepth, int64(s.b.depth()))

	type cachedFill struct {
		j    *Job
		body []byte
	}
	var fills []cachedFill
	var fresh []*flight

	s.mu.Lock()
	for _, sub := range batch {
		sub.job.markBatched(now)
		k := sub.spec.Key()
		// The result may have landed since this submission was queued.
		if body, ok := s.cache.Get(k); ok {
			s.m.inc(mCacheHits, 1)
			fills = append(fills, cachedFill{j: sub.job, body: body})
			continue
		}
		if f, ok := s.inflight[k]; ok {
			// Identical work is already in the air (earlier batch or
			// earlier in this one): ride it.
			f.jobs = append(f.jobs, sub.job)
			sub.job.markCoalesced()
			s.m.inc(mCoalesced, 1)
			continue
		}
		f := &flight{spec: sub.spec, jobs: []*Job{sub.job}}
		s.inflight[k] = f
		fresh = append(fresh, f)
	}
	s.mu.Unlock()

	// Count and time before completing: completion releases a ?wait=
	// client, which may read /metrics at once.
	for _, fill := range fills {
		s.m.inc(mJobsDone, 1)
		now := time.Now()
		s.observeJobLatency(fill.j, now)
		fill.j.complete(fill.body, nil, true, now)
	}
	if len(fresh) == 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.execFlights(fresh)
	}()
}

// execFlights runs a batch's fresh flights across the experiment
// engine: bounded workers via the server-wide semaphore, per-job
// wall-clock timeouts, panic isolation. Each flight completes its
// attached jobs the moment its own simulation finishes — no barrier on
// the rest of the batch.
func (s *Server) execFlights(fresh []*flight) {
	jobs := make([]exp.Job, len(fresh))
	for i, f := range fresh {
		f := f
		jobs[i] = exp.Job{
			Name: f.spec.Name(),
			Run: func(ctx context.Context) (any, error) {
				select {
				case s.sem <- struct{}{}:
				case <-ctx.Done():
					return nil, diagerr.FromContext(ctx.Err())
				}
				defer func() { <-s.sem }()

				start := time.Now()
				s.m.inc(mSims, 1)
				s.m.addGauge(mInflight, 1)
				defer s.m.addGauge(mInflight, -1)
				for _, j := range f.jobs {
					j.markStarted(start)
				}

				onProgress := func(done, total int) {
					s.mu.Lock()
					js := append([]*Job(nil), f.jobs...)
					s.mu.Unlock()
					for _, j := range js {
						j.setProgress(done, total)
					}
				}
				workers := f.spec.Req.Parallel
				if workers <= 0 || workers > s.cfg.Workers {
					workers = s.cfg.Workers
				}
				body, regs, err := f.spec.execute(ctx, workers, onProgress, !s.cfg.NoObserve)
				for _, reg := range regs {
					s.m.mergeObsv(reg)
				}
				if err != nil {
					return nil, err
				}
				s.m.observe(hSimMs, int64(time.Since(start)/time.Millisecond))
				s.finishFlight(f, body, nil)
				return body, nil
			},
		}
	}
	results, _ := exp.Run(s.ctx, jobs, exp.Options{
		Workers: s.cfg.Workers,
		Timeout: s.cfg.JobTimeout,
	})
	// Success paths finished inside Run; everything left is a failure
	// (timeout, panic, cancellation) to propagate to attached jobs.
	for i, r := range results {
		if r.Err != nil {
			s.finishFlight(fresh[i], nil, r.Err)
		}
	}
}

// finishFlight publishes a flight's outcome: fill the cache, retire the
// in-flight entry, and complete every attached job. Cache fill and
// in-flight removal happen under one lock acquisition, so a concurrent
// coalesce attempt either attaches before completion (and is completed
// here) or sees the cache entry — never neither. Taking f.jobs under
// that lock also hands each attached job to exactly one call, and no
// other path completes a job attached to a flight, so every job here is
// still open: it is counted and timed first, then completed, because
// completion releases a ?wait= client that may read /metrics at once.
func (s *Server) finishFlight(f *flight, body []byte, err error) {
	s.mu.Lock()
	if err == nil {
		if evicted := s.cache.Put(f.spec.Key(), body); evicted > 0 {
			s.m.inc(mCacheEvictions, uint64(evicted))
		}
	}
	delete(s.inflight, f.spec.Key())
	js := f.jobs
	f.jobs = nil
	s.m.gauge(mCacheEntries, int64(s.cache.Len()))
	s.mu.Unlock()

	now := time.Now()
	for i, j := range js {
		if err != nil {
			s.m.inc(mJobsFailed, 1)
		} else {
			s.m.inc(mJobsDone, 1)
		}
		s.observeJobLatency(j, now)
		// The first attached job owns the simulation; the rest were
		// coalesced onto it.
		j.complete(body, err, i > 0 && err == nil, now)
	}
}

// observeJobLatency folds the stage durations of a job finishing at now
// into the latency histograms. Every job done, simulated or served from
// the cache, is observed before it is completed. A batched job's queued
// time is submit → batch; a job served from the cache at submit was
// never batched and so reads as queued for 0 ms.
func (s *Server) observeJobLatency(j *Job, now time.Time) {
	v := j.View(now)
	s.m.observe(hQueuedMs, int64(v.Timings.QueuedMs))
	s.m.observe(hTotalMs, int64(v.Timings.TotalMs))
}

// handleList is GET /api/v1/jobs: every job in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.mu.Lock()
	views := make([]View, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].View(now))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []View `json:"jobs"`
	}{views})
}

// lookupJob resolves {id} or writes a 404.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *Job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return j
}

// handleJob is GET /api/v1/jobs/{id}: the job view; ?wait=DURATION
// long-polls until the job is terminal.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait duration %q: %v", waitStr, err)
			return
		}
		s.awaitJob(r, j, d)
	}
	writeJSON(w, http.StatusOK, j.View(time.Now()))
}

// handleResult is GET /api/v1/jobs/{id}/result: the raw canonical
// result body — exactly the cached bytes, so two requests with the
// same key read byte-identical results. A pending job answers 202 with
// its view; a failed one 500 with its error.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	body, ok := j.Result()
	if !ok {
		v := j.View(time.Now())
		if v.State == StateFailed {
			writeError(w, http.StatusInternalServerError, "job %s failed: %s", v.ID, v.Error)
			return
		}
		writeJSON(w, http.StatusAccepted, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleStream is GET /api/v1/jobs/{id}/stream: a server-sent-events
// stream of the job's view, one event per observable change, ending at
// the terminal state.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var last []byte
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		v := j.View(time.Now())
		v.Timings.Served = time.Time{} // suppress the per-render field so idle polls compare equal
		v.Timings.TotalMs = 0
		cur, _ := json.Marshal(v)
		if !jsonEqual(cur, last) {
			last = cur
			fmt.Fprintf(w, "data: %s\n\n", cur)
			fl.Flush()
		}
		if v.State == StateDone || v.State == StateFailed {
			return
		}
		select {
		case <-j.Done():
		case <-tick.C:
		case <-r.Context().Done():
			return
		}
	}
}

func jsonEqual(a, b []byte) bool { return string(a) == string(b) }

// handleMetrics is GET /metrics: Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.WriteProm(w)
}

// handleHealthz is GET /healthz: 200 while serving, 503 while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}
