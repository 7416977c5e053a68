package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testProg is a tiny self-terminating kernel: store 42 at 0x1000.
const testProg = `
	li x5, 42
	li x6, 0x1000
	sw x5, 0(x6)
	ebreak
`

// newTestServer builds a started server plus an httptest front end,
// both torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, ts
}

// submit POSTs a request body and decodes the job view.
func submit(t *testing.T, ts *httptest.Server, body string, wait bool) (int, View) {
	t.Helper()
	url := ts.URL + "/api/v1/jobs"
	if wait {
		url += "?wait=30s"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v View
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("submit response %q: %v", raw, err)
		}
	}
	return resp.StatusCode, v
}

// fetch GETs a path and returns status + body.
func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("get %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func runBody(extra string) string {
	b, _ := json.Marshal(testProg)
	return fmt.Sprintf(`{"kind":"run","machine":"iss","asm":%s%s}`, b, extra)
}

func TestRunLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	code, v := submit(t, ts, runBody(""), true)
	if code != http.StatusOK {
		t.Fatalf("submit: got %d, want 200", code)
	}
	if v.State != StateDone {
		t.Fatalf("state = %q, want done", v.State)
	}
	if v.Cached {
		t.Fatalf("first run reported cached")
	}
	if v.ID == "" || v.Key == "" || v.ResultURL == "" {
		t.Fatalf("incomplete view: %+v", v)
	}
	if v.Timings.Submitted.IsZero() || v.Timings.Finished == nil {
		t.Fatalf("missing timings: %+v", v.Timings)
	}
	if v.Timings.TotalMs <= 0 {
		t.Fatalf("total_ms = %v, want > 0", v.Timings.TotalMs)
	}

	code, raw := fetch(t, ts, v.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result: got %d, want 200 (%s)", code, raw)
	}
	var res struct {
		Machine   string `json:"machine"`
		Retired   uint64 `json:"retired"`
		MemDigest string `json:"mem_digest"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if res.Machine != "iss" || res.Retired == 0 || res.MemDigest == "" {
		t.Fatalf("result = %+v", res)
	}

	// The job shows up in the listing.
	code, raw = fetch(t, ts, "/api/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: got %d", code)
	}
	var list struct {
		Jobs []View `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatalf("list body: %v", err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Fatalf("list = %+v", list.Jobs)
	}

	// And by ID.
	code, _ = fetch(t, ts, "/api/v1/jobs/"+v.ID)
	if code != http.StatusOK {
		t.Fatalf("job by id: got %d", code)
	}
}

func TestCacheHitShortCircuit(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	code, v1 := submit(t, ts, runBody(""), true)
	if code != http.StatusOK || v1.State != StateDone {
		t.Fatalf("first submit: %d %+v", code, v1)
	}
	sims := srv.Metrics().counter(mSims)
	if sims != 1 {
		t.Fatalf("sims after first run = %d, want 1", sims)
	}
	_, body1 := fetch(t, ts, v1.ResultURL)

	code, v2 := submit(t, ts, runBody(""), true)
	if code != http.StatusOK {
		t.Fatalf("second submit: %d", code)
	}
	if !v2.Cached {
		t.Fatalf("second submit not served from cache: %+v", v2)
	}
	if v2.State != StateDone {
		t.Fatalf("cached job state = %q", v2.State)
	}
	if v2.Key != v1.Key {
		t.Fatalf("cache keys differ: %s vs %s", v1.Key, v2.Key)
	}
	if got := srv.Metrics().counter(mSims); got != sims {
		t.Fatalf("cache hit ran a simulation: sims %d -> %d", sims, got)
	}
	if hits := srv.Metrics().counter(mCacheHits); hits != 1 {
		t.Fatalf("cache_hits = %d, want 1", hits)
	}

	_, body2 := fetch(t, ts, v2.ResultURL)
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached result body differs:\n%s\nvs\n%s", body1, body2)
	}

	// Source text that differs but assembles identically shares the key
	// (content addressing over the image, not the text).
	reordered := strings.ReplaceAll(testProg, "\t", "  ")
	b, _ := json.Marshal(reordered)
	code, v3 := submit(t, ts, fmt.Sprintf(`{"kind":"run","machine":"iss","asm":%s}`, b), true)
	if code != http.StatusOK || !v3.Cached {
		t.Fatalf("whitespace-variant source missed the cache: %d %+v", code, v3)
	}
}

func TestCoalescing(t *testing.T) {
	// A long batch wait holds the batch open so every duplicate lands in
	// it before the single flight launches.
	srv, ts := newTestServer(t, Config{BatchWait: 300 * time.Millisecond, BatchSize: 64})

	const n = 4
	var wg sync.WaitGroup
	codes := make([]int, n)
	views := make([]View, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], views[i] = submit(t, ts, runBody(""), true)
		}(i)
	}
	wg.Wait()

	coalesced := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK || views[i].State != StateDone {
			t.Fatalf("submission %d: %d %+v", i, codes[i], views[i])
		}
		if views[i].Coalesced {
			coalesced++
		}
	}
	if sims := srv.Metrics().counter(mSims); sims != 1 {
		t.Fatalf("sims = %d, want 1 (identical submissions must share one simulation)", sims)
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced jobs = %d, want %d", coalesced, n-1)
	}
	if got := srv.Metrics().counter(mCoalesced); got != uint64(n-1) {
		t.Fatalf("coalesced_total = %d, want %d", got, n-1)
	}

	// All four read the same bytes.
	var first []byte
	for i := 0; i < n; i++ {
		_, body := fetch(t, ts, "/api/v1/jobs/"+views[i].ID+"/result")
		if i == 0 {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("coalesced result %d differs from first", i)
		}
	}
}

// TestDeterminismAcrossParallel pins the invariant the cache key relies
// on: the same request yields the byte-identical result body at any
// worker count, so parallel stays out of the key.
func TestDeterminismAcrossParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign in -short mode")
	}
	body := func(parallel int) string {
		b, _ := json.Marshal(testProg)
		return fmt.Sprintf(`{"kind":"fault","machine":"F4C2","asm":%s,"trials":12,"seed":7,"parallel":%d}`, b, parallel)
	}

	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Config{Workers: workers})
		code, v := submit(t, ts, body(workers), true)
		if code != http.StatusOK || v.State != StateDone {
			t.Fatalf("workers=%d: %d %+v", workers, code, v)
		}
		_, raw := fetch(t, ts, v.ResultURL)
		bodies = append(bodies, raw)
		ts.Close()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("fault report differs across parallelism:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

func TestSweepAndProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	b, _ := json.Marshal(testProg)
	code, v := submit(t, ts, fmt.Sprintf(`{"kind":"sweep","machines":["iss","I4C2"],"asm":%s}`, b), true)
	if code != http.StatusOK || v.State != StateDone {
		t.Fatalf("sweep: %d %+v", code, v)
	}
	if v.Progress == nil || v.Progress.Done != 2 || v.Progress.Total != 2 {
		t.Fatalf("progress = %+v, want 2/2", v.Progress)
	}
	_, raw := fetch(t, ts, v.ResultURL)
	var rs []struct {
		Machine string `json:"machine"`
		Cycles  int64  `json:"cycles"`
	}
	if err := json.Unmarshal(raw, &rs); err != nil {
		t.Fatalf("sweep body: %v\n%s", err, raw)
	}
	if len(rs) != 2 || rs[0].Machine != "iss" || rs[1].Machine != "I4C2" {
		t.Fatalf("sweep results = %+v", rs)
	}
	if rs[1].Cycles <= 0 {
		t.Fatalf("timed machine reported %d cycles", rs[1].Cycles)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `{{{`},
		{"wrong type", `"just a string"`},
		{"unknown field", `{"kind":"run","machine":"iss","asm":"ebreak","bogus":1}`},
		{"trailing document", `{"kind":"run","machine":"iss","asm":"ebreak"}{}`},
		{"missing kind", `{"machine":"iss","asm":"ebreak"}`},
		{"unknown kind", `{"kind":"fly","machine":"iss","asm":"ebreak"}`},
		{"missing machine", `{"kind":"run","asm":"ebreak"}`},
		{"unknown machine", `{"kind":"run","machine":"Z80","asm":"ebreak"}`},
		{"no program", `{"kind":"run","machine":"iss"}`},
		{"both programs", `{"kind":"run","machine":"iss","asm":"ebreak","workload":"hotspot"}`},
		{"bad asm", `{"kind":"run","machine":"iss","asm":"frobnicate x1, x2"}`},
		{"unknown workload", `{"kind":"run","machine":"iss","workload":"doom"}`},
		{"negative trials", `{"kind":"fault","machine":"F4C2","asm":"ebreak","trials":-1}`},
		{"huge trials", `{"kind":"fault","machine":"F4C2","asm":"ebreak","trials":1000000}`},
		{"fault on iss", `{"kind":"fault","machine":"iss","asm":"ebreak"}`},
		{"difftest with asm", `{"kind":"difftest","asm":"ebreak"}`},
		{"difftest with machine", `{"kind":"difftest","machine":"iss"}`},
		{"difftest bad archs", `{"kind":"difftest","archs":"pdp11"}`},
		{"sweep no machines", `{"kind":"sweep","asm":"ebreak"}`},
		{"sweep bad machine", `{"kind":"sweep","asm":"ebreak","machines":["iss","Z80"]}`},
		{"out of range parallel", `{"kind":"run","machine":"iss","asm":"ebreak","parallel":1000}`},
		{"negative cycles", `{"kind":"run","machine":"iss","asm":"ebreak","max_cycles":-5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _ := submit(t, ts, tc.body, false)
			if code < 400 || code >= 500 {
				t.Fatalf("got %d, want 4xx", code)
			}
		})
	}

	// Oversized body.
	big := fmt.Sprintf(`{"kind":"run","machine":"iss","asm":%q}`, strings.Repeat("nop\n", maxBody/2))
	if code, _ := submit(t, ts, big, false); code < 400 || code >= 500 {
		t.Fatalf("oversized body: got %d, want 4xx", code)
	}

	// Bad wait duration on an otherwise good request.
	resp, err := http.Post(ts.URL+"/api/v1/jobs?wait=banana", "application/json", strings.NewReader(runBody("")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad wait: got %d, want 400", resp.StatusCode)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/api/v1/jobs/j999999", "/api/v1/jobs/j999999/result", "/api/v1/jobs/j999999/stream"} {
		if code, _ := fetch(t, ts, path); code != http.StatusNotFound {
			t.Fatalf("%s: got %d, want 404", path, code)
		}
	}
}

// TestResultPending covers the 202 path: a server whose collector never
// starts leaves jobs queued forever.
func TestResultPending(t *testing.T) {
	srv := New(Config{}) // note: no Start — the batcher never collects
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, v := submit(t, ts, runBody(""), false)
	if code != http.StatusAccepted {
		t.Fatalf("submit: got %d, want 202", code)
	}
	code, _ = fetch(t, ts, "/api/v1/jobs/"+v.ID+"/result")
	if code != http.StatusAccepted {
		t.Fatalf("pending result: got %d, want 202", code)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	code, v := submit(t, ts, runBody(""), true)
	if code != http.StatusOK || v.State != StateDone {
		t.Fatalf("pre-drain submit: %d %+v", code, v)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// New submissions are refused…
	code, _ = submit(t, ts, runBody(""), false)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: got %d, want 503", code)
	}
	if code, _ := fetch(t, ts, "/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: got %d, want 503", code)
	}
	// …but finished work stays readable.
	if code, _ := fetch(t, ts, v.ResultURL); code != http.StatusOK {
		t.Fatalf("post-drain result: got %d, want 200", code)
	}
	// Drain is idempotent.
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestDrainCompletesInflight(t *testing.T) {
	srv, ts := newTestServer(t, Config{BatchWait: time.Millisecond})

	// Submit without waiting, then immediately drain: the job must still
	// complete (drain finishes in-flight work rather than dropping it).
	code, v := submit(t, ts, runBody(""), false)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, raw := fetch(t, ts, "/api/v1/jobs/"+v.ID)
	if code != http.StatusOK {
		t.Fatalf("job after drain: %d", code)
	}
	var got View
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("in-flight job state after drain = %q, want done", got.State)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _ := submit(t, ts, runBody(""), true); code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)

	for _, want := range []string{
		"diag_server_requests_total",
		"diag_server_jobs_submitted_total",
		"diag_server_jobs_done_total",
		"diag_server_cache_misses_total",
		"diag_server_sims_total 1",
		"diag_server_batches_total",
		"diag_server_batch_size_count",
		"diag_server_job_total_ms_count",
		"diag_server_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Every line is either a comment or "name value".
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, v := submit(t, ts, runBody(""), false)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	var lastView View
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(data), &lastView); err != nil {
				t.Fatalf("stream event %q: %v", data, err)
			}
		}
	}
	if lastView.State != StateDone {
		t.Fatalf("final stream state = %q, want done", lastView.State)
	}
}

// TestQueueFull covers the 503 intake-overload path: a stopped
// collector with a tiny queue fills immediately.
func TestQueueFull(t *testing.T) {
	srv := New(Config{QueueDepth: 1}) // no Start: nothing drains the queue
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := submit(t, ts, runBody(""), false); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	code, _ := submit(t, ts, runBody(`,"seed":2`), false)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: got %d, want 503", code)
	}
	if got := srv.Metrics().counter(mRejected); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, raw := fetch(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(raw), "ok") {
		t.Fatalf("healthz: %d %s", code, raw)
	}
}

// TestWorkloadRun exercises the workload-built program path end to end.
func TestWorkloadRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, v := submit(t, ts, `{"kind":"run","machine":"I4C2","workload":"hotspot","scale":1}`, true)
	if code != http.StatusOK || v.State != StateDone {
		t.Fatalf("workload run: %d %+v", code, v)
	}
	_, raw := fetch(t, ts, v.ResultURL)
	var res struct {
		Machine string  `json:"machine"`
		IPC     float64 `json:"ipc"`
		Joules  float64 `json:"joules"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("body: %v", err)
	}
	if res.Machine != "I4C2" || res.IPC <= 0 || res.Joules <= 0 {
		t.Fatalf("workload result = %+v", res)
	}
}

// TestResultsNameTheRegistryMachine pins that run and fault results
// name the machine by its registry name, the one the request used —
// not the configuration's display name ("OoO-8w").
func TestResultsNameTheRegistryMachine(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	asm, _ := json.Marshal(testProg)
	for _, kind := range []string{"run", "fault"} {
		body := fmt.Sprintf(`{"kind":%q,"machine":"ooo","asm":%s,"trials":2,"seed":1}`, kind, asm)
		code, v := submit(t, ts, body, true)
		if code != http.StatusOK || v.State != StateDone {
			t.Fatalf("%s: %d %+v", kind, code, v)
		}
		_, raw := fetch(t, ts, v.ResultURL)
		var res struct {
			Machine string `json:"machine"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("%s body: %v", kind, err)
		}
		if res.Machine != "ooo" {
			t.Errorf("%s result machine = %q, want %q", kind, res.Machine, "ooo")
		}
	}
}

// TestMetricsCountJobBeforeWaitReturns reads /metrics the moment each
// ?wait= submit returns: the job that released the client must already
// be counted as done and folded into the latency histogram. Every
// submit is a distinct program, so every one is a fresh simulation.
func TestMetricsCountJobBeforeWaitReturns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 200
	for i := 1; i <= n; i++ {
		prog, _ := json.Marshal(strings.Replace(testProg, "li x5, 42", fmt.Sprintf("li x5, %d", i), 1))
		body := fmt.Sprintf(`{"kind":"run","machine":"iss","asm":%s}`, prog)
		if code, v := submit(t, ts, body, true); code != http.StatusOK || v.Cached {
			t.Fatalf("submit %d: status %d, cached %v", i, code, v.Cached)
		}
		_, raw := fetch(t, ts, "/metrics")
		want := fmt.Sprint(i)
		for _, name := range []string{"diag_server_jobs_done_total", "diag_server_job_total_ms_count"} {
			if got := metric(string(raw), name); got != want {
				t.Fatalf("after submit %d: %s = %q, want %s", i, name, got, want)
			}
		}
	}
}

// metric returns the value of the exposition line name in text, or "".
func metric(text, name string) string {
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			return f[1]
		}
	}
	return ""
}

// TestMetricsTimeCacheServedJobs checks that a job served from the
// cache is timed like a simulated one, both at submit (a repeat of a
// finished program) and at batch time (a result that landed while the
// job was queued): job_total_ms_count keeps up with jobs_done_total.
func TestMetricsTimeCacheServedJobs(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	counts := func(want string) {
		t.Helper()
		_, raw := fetch(t, ts, "/metrics")
		for _, name := range []string{"diag_server_jobs_done_total", "diag_server_job_total_ms_count"} {
			if got := metric(string(raw), name); got != want {
				t.Errorf("%s = %q, want %s", name, got, want)
			}
		}
	}
	for i, cached := range []bool{false, true} {
		if code, v := submit(t, ts, runBody(""), true); code != http.StatusOK || v.Cached != cached {
			t.Fatalf("submit %d: status %d, cached %v, want 200, %v", i, code, v.Cached, cached)
		}
	}
	counts("2")

	sp, err := ParseRequest(strings.NewReader(runBody("")))
	if err != nil {
		t.Fatal(err)
	}
	j := newJob("late-hit", sp, time.Now())
	srv.runBatch([]*submission{{job: j, spec: sp}})
	if v := j.View(time.Now()); v.State != StateDone || !v.Cached {
		t.Fatalf("batch-time cache fill: state %q, cached %v", v.State, v.Cached)
	}
	counts("3")
}
