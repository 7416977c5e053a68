package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"diag"
	"diag/internal/asm"
	"diag/internal/journal"
	"diag/internal/power"
	"diag/internal/server"
	"diag/internal/workloads"
)

// service is diag-server running in process behind a real loopback
// listener, with a client limited to one connection per host CPU.
type service struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client

	mu        sync.Mutex
	timings   []server.Timings // views of the misses served
	cached    int              // responses served from the result cache
	responses int
	refused   int       // 503s
	lateness  []float64 // seconds from each request's due time to its send
}

// late records how late a request is sent relative to its due time.
func (s *service) late(due time.Time) {
	l := time.Since(due).Seconds()
	s.mu.Lock()
	s.lateness = append(s.lateness, l)
	s.mu.Unlock()
}

func startService() *service {
	s := server.New(server.Config{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	conns := runtime.NumCPU()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
	return &service{srv: s, ts: ts, client: client}
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Printf("perfbench: draining the server: %v\n", err)
	}
}

// request is one submission: its wire body and the library's result
// body for the same spec, which the server's result must equal byte
// for byte.
type request struct {
	body []byte
	want []byte // filled by reference
	req  server.Request
}

// submit posts the request, waits for the job and fetches its result.
// It returns the job view and the result body.
func (s *service) submit(tr *tracer, parent int, r *request) (server.View, []byte, error) {
	var v server.View
	id := tr.begin("server.submit", parent)
	resp, err := s.client.Post(s.ts.URL+"/api/v1/jobs?wait=60s", "application/json", bytes.NewReader(r.body))
	if err == nil {
		err = decodeView(resp, &v)
	}
	tr.end(id)
	if err != nil {
		return v, nil, err
	}
	if v.State != "done" {
		return v, nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	id = tr.begin("server.result", parent)
	resp, err = s.client.Get(s.ts.URL + v.ResultURL)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, body)
		}
	}
	tr.end(id)
	return v, body, err
}

func decodeView(resp *http.Response, v *server.View) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, b)
	}
	return json.Unmarshal(b, v)
}

// record notes a served response for the per-layer server metrics.
func (s *service) record(v server.View, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if strings.Contains(err.Error(), "HTTP 503") {
			s.refused++
		}
		return
	}
	s.responses++
	if v.Cached {
		s.cached++
	} else {
		s.timings = append(s.timings, v.Timings)
	}
}

// counters reads the server's own counters from /metrics.
func (s *service) counters() (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// hitAsm is the small program of the asm hit kind.
const hitAsm = `
	li   t0, 0
	li   t1, 100
loop:
	addi t0, t0, 1
	blt  t0, t1, loop
	ebreak
`

// missAsm is the miss kinds' program: a 20000-iteration loop whose data
// section holds one nonce word. The nonce changes the program's digest,
// so every submission misses the cache, but not the work simulated.
const missAsm = `
	.data
nonce:
	.word %d
	.text
	li   t0, 0
	li   t1, 20000
	li   t3, 0
loop:
	addi t2, t0, 3
	xor  t3, t3, t2
	addi t0, t0, 1
	blt  t0, t1, loop
	la   t4, nonce
	sw   t3, 4(t4)
	ebreak
`

func newRequest(req server.Request) (*request, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &request{body: b, req: req}, nil
}

// hitRequests are the repeated submissions of the mix: a six-line asm
// program on F4C2 and a 64 KiB workload image on the ISS.
func hitRequests() ([]*request, error) {
	a, err := newRequest(server.Request{Kind: "run", Asm: hitAsm, Machine: "F4C2"})
	if err != nil {
		return nil, err
	}
	w, err := newRequest(server.Request{Kind: "run", Workload: "nw", Scale: 4, Machine: "iss"})
	if err != nil {
		return nil, err
	}
	return []*request{a, w}, nil
}

// missMachines are the machines the fresh submissions run on.
var missMachines = []string{"iss", "F4C2", "ooo"}

func missRequest(machine string, nonce uint32) (*request, error) {
	return newRequest(server.Request{Kind: "run", Asm: fmt.Sprintf(missAsm, nonce), Machine: machine})
}

// runResult mirrors the server's result body for a run job: the
// library computes it here independently so the server's bytes can be
// checked.
type runResult struct {
	Machine   string           `json:"machine"`
	Cycles    int64            `json:"cycles"`
	Retired   uint64           `json:"retired"`
	IPC       float64          `json:"ipc,omitempty"`
	MemDigest string           `json:"mem_digest"`
	Energy    *power.Breakdown `json:"energy,omitempty"`
	Joules    float64          `json:"joules,omitempty"`
	Stats     any              `json:"stats,omitempty"`
}

// reference runs the request's program through the library and
// renders the result body the server must return.
func (r *request) reference() error {
	var img *diag.Program
	var err error
	if r.req.Asm != "" {
		img, err = asm.Assemble(r.req.Asm)
	} else {
		w, _ := workloads.ByName(r.req.Workload)
		img, err = w.Build(workloads.Params{Scale: r.req.Scale, Threads: 1})
	}
	if err != nil {
		return err
	}
	var res *diag.Result
	out := runResult{Machine: strings.ToLower(r.req.Machine)}
	switch r.req.Machine {
	case "iss":
		res, err = diag.ISS().Run(img)
	case "ooo":
		cfg := diag.Baseline()
		if res, err = diag.OoO(cfg).Run(img); err == nil {
			e := power.OoOEnergy(cfg, *res.Baseline, 2000)
			out.Energy, out.Joules = &e, e.Total()
			out.IPC, out.Stats = res.Baseline.IPC(), res.Baseline
		}
	case "F4C2":
		cfg := diag.F4C2()
		out.Machine = "F4C2"
		if res, err = diag.DiAG(cfg).Run(img); err == nil {
			e := power.DiAGEnergy(cfg, *res.DiAG)
			out.Energy, out.Joules = &e, e.Total()
			out.IPC, out.Stats = res.DiAG.IPC(), res.DiAG
		}
	default:
		return fmt.Errorf("no reference for machine %s", r.req.Machine)
	}
	if err != nil {
		return err
	}
	out.Cycles, out.Retired = res.Cycles, res.Retired
	out.MemDigest = fmt.Sprintf("%016x", res.Mem.Digest())
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	r.want = buf.Bytes()
	return nil
}

// served is one response awaiting its check against the library.
type served struct {
	k    *kind
	r    *request
	body []byte
}

// checker collects miss responses and checks them after the timed part,
// so the reference simulations do not load the host while it runs.
type checker struct {
	mu      sync.Mutex
	pending []served
}

func (c *checker) add(k *kind, r *request, body []byte) {
	c.mu.Lock()
	c.pending = append(c.pending, served{k, r, body})
	c.mu.Unlock()
}

// verify checks every pending response and returns how many failed.
func (c *checker) verify() int {
	failed := 0
	for _, s := range c.pending {
		err := s.r.reference()
		if err == nil && !bytes.Equal(s.body, s.r.want) {
			err = fmt.Errorf("server body differs from the library result:\n%s\nwant:\n%s", s.body, s.r.want)
		}
		if err != nil {
			failed++
			fmt.Printf("perfbench: %s: %v\n", s.k.name, err)
		}
	}
	c.pending = nil
	return failed
}

// resultOutput is the canonical output of a served run: the simulated
// cycles and retired count, which the nonce does not change.
func resultOutput(body []byte) (string, error) {
	var r runResult
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %d %d", r.Machine, r.Cycles, r.Retired), nil
}

// hitKind resubmits a cached spec; its body must equal the library's.
func hitKind(s *service, r *request, weight float64) *kind {
	k := &kind{name: "hit/" + r.req.Machine + "/asm", family: famHit, est: lowQuartile, weight: weight}
	if r.req.Workload != "" {
		k.name = fmt.Sprintf("hit/%s/%s%d", r.req.Machine, r.req.Workload, r.req.Scale)
	}
	k.run = func(tr *tracer, parent int, due time.Time) (time.Duration, string, error) {
		s.late(due)
		v, body, err := s.submit(tr, parent, r)
		d := time.Since(due)
		s.record(v, err)
		if err != nil {
			return 0, "", err
		}
		if !v.Cached {
			return 0, "", fmt.Errorf("repeat submission missed the cache")
		}
		if !bytes.Equal(body, r.want) {
			return 0, "", fmt.Errorf("server body differs from the library result")
		}
		return d, string(body), nil
	}
	return k
}

// missKind submits a fresh program (a new seeded nonce) each time; the
// body is checked against the library after the timed part.
func missKind(s *service, c *checker, machine string, rng *rand.Rand, weight float64) *kind {
	k := &kind{name: "miss/" + machine, family: famMiss, est: best, weight: weight}
	var mu sync.Mutex
	k.run = func(tr *tracer, parent int, due time.Time) (time.Duration, string, error) {
		mu.Lock()
		nonce := rng.Uint32()
		mu.Unlock()
		r, err := missRequest(machine, nonce)
		if err != nil {
			return 0, "", err
		}
		s.late(due)
		v, body, err := s.submit(tr, parent, r)
		d := time.Since(due)
		s.record(v, err)
		if err != nil {
			return 0, "", err
		}
		if v.Cached {
			return 0, "", fmt.Errorf("fresh submission hit the cache")
		}
		c.add(k, r, body)
		out, err := resultOutput(body)
		return d, out, err
	}
	return k
}

// layerDigest times the server's per-submission image work directly:
// assemble or build the image, then digest it (spec.go buildImage).
func layerDigest(tr *tracer, parent int, r *request) error {
	var img *diag.Program
	var err error
	if r.req.Asm != "" {
		_, err = tr.timed("asm.assemble", parent, func() error {
			img, err = asm.Assemble(r.req.Asm)
			return err
		})
	} else {
		w, _ := workloads.ByName(r.req.Workload)
		_, err = tr.timed("workloads.build", parent, func() error {
			img, err = w.Build(workloads.Params{Scale: r.req.Scale, Threads: 1})
			return err
		})
	}
	if err != nil {
		return err
	}
	tr.timed("journal.digest", parent, func() error { journal.DigestJSON(img); return nil })
	return nil
}
