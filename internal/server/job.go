package server

import (
	"sync"
	"time"
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one submitted request's lifecycle record. All fields are
// guarded by mu; handlers read through View and the completion channel.
type Job struct {
	mu sync.Mutex

	id        string
	kind      string
	key       cacheKey
	state     string
	cached    bool // served from the result cache, no simulation
	coalesced bool // served by another in-flight job's simulation
	errMsg    string

	submitted time.Time
	batched   time.Time
	started   time.Time
	finished  time.Time

	progDone, progTotal int

	result []byte
	done   chan struct{} // closed exactly once, at completion
}

func newJob(id string, sp *Spec, now time.Time) *Job {
	return &Job{
		id: id, kind: sp.Req.Kind, key: sp.Key(),
		state: StateQueued, submitted: now,
		done: make(chan struct{}),
	}
}

// Done returns the completion channel (closed once the job is terminal).
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's result body and whether it is available.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// markBatched stamps the batch-flush time (once).
func (j *Job) markBatched(t time.Time) {
	j.mu.Lock()
	if j.batched.IsZero() {
		j.batched = t
	}
	j.mu.Unlock()
}

// markStarted stamps simulation start and flips the state to running.
func (j *Job) markStarted(t time.Time) {
	j.mu.Lock()
	if j.started.IsZero() {
		j.started = t
		j.state = StateRunning
	}
	j.mu.Unlock()
}

// markCoalesced tags the job as riding another job's simulation.
func (j *Job) markCoalesced() {
	j.mu.Lock()
	j.coalesced = true
	j.mu.Unlock()
}

// setProgress updates the done/total progress counters.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	j.progDone, j.progTotal = done, total
	j.mu.Unlock()
}

// complete finishes the job exactly once; later calls are ignored (a
// job completed from the success path must not be re-completed by the
// batch error sweep). cached marks a cache or coalesce fill. Callers
// count the job in the metrics before completing it.
func (j *Job) complete(body []byte, err error, cached bool, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed {
		return
	}
	j.finished = now
	j.cached = cached
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.result = body
	}
	close(j.done)
}

// Timings is the per-request latency breakdown every job response
// carries: the four lifecycle timestamps plus derived stage durations
// in milliseconds. Served is stamped at render time, so two reads of
// the same job agree on everything except Served/TotalMs.
type Timings struct {
	Submitted time.Time  `json:"submitted"`
	Batched   *time.Time `json:"batched,omitempty"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Served    time.Time  `json:"served"`

	QueuedMs float64 `json:"queued_ms"`     // submitted → batched (or finished, for cache hits)
	BatchMs  float64 `json:"batch_wait_ms"` // batched → started
	SimMs    float64 `json:"sim_ms"`        // started → finished
	TotalMs  float64 `json:"total_ms"`      // submitted → served
}

// View is the JSON shape of a job in every response.
type View struct {
	ID        string  `json:"id"`
	Kind      string  `json:"kind"`
	State     string  `json:"state"`
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
	Key       string  `json:"key"`
	Error     string  `json:"error,omitempty"`
	Progress  *Prog   `json:"progress,omitempty"`
	Timings   Timings `json:"timings"`
	ResultURL string  `json:"result_url,omitempty"`
}

// Prog is a job's done/total progress counter pair.
type Prog struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// View snapshots the job for a response, stamping now as Served.
func (j *Job) View(now time.Time) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.id, Kind: j.kind, State: j.state,
		Cached: j.cached, Coalesced: j.coalesced,
		Key: j.key.String(), Error: j.errMsg,
		Timings: Timings{Submitted: j.submitted, Served: now},
	}
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
	if !j.batched.IsZero() {
		t := j.batched
		v.Timings.Batched = &t
		v.Timings.QueuedMs = ms(j.submitted, j.batched)
	}
	if !j.started.IsZero() {
		t := j.started
		v.Timings.Started = &t
		if !j.batched.IsZero() {
			v.Timings.BatchMs = ms(j.batched, j.started)
		}
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Timings.Finished = &t
		if !j.started.IsZero() {
			v.Timings.SimMs = ms(j.started, j.finished)
		}
		if j.batched.IsZero() && j.started.IsZero() {
			v.Timings.QueuedMs = ms(j.submitted, j.finished)
		}
	}
	v.Timings.TotalMs = ms(j.submitted, now)
	if j.progTotal > 0 {
		v.Progress = &Prog{Done: j.progDone, Total: j.progTotal}
	}
	if j.state == StateDone {
		v.ResultURL = "/api/v1/jobs/" + j.id + "/result"
	}
	return v
}
