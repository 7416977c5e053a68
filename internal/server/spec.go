// Package server is the simulation-as-a-service tier: a long-running
// HTTP/JSON front end over the simulation library. Clients POST a
// program + configuration and get back a job (run / sweep /
// fault-campaign / difftest), poll or stream its progress, and fetch
// its result.
//
// Three load-bearing pieces turn the library into a service that can
// absorb heavy repeat traffic:
//
//   - a request batcher (batcher.go): submissions are coalesced into
//     batches by a channel-based collector with a max-batch-size and a
//     max-wait flush, and identical-key jobs in one batch — or already
//     in flight — share a single simulation;
//   - a content-addressed result cache (cache.go): results are keyed by
//     the FNV digest of the assembled program image plus a canonicalized
//     encoding of the request's semantic fields (the internal/journal
//     manifest-identity idiom), so repeat traffic is served without
//     simulating at all;
//   - an observability surface (metrics.go): every server-level counter
//     (requests, cache hits, coalesces, batch sizes, queue depth) plus
//     merged per-run internal/obsv registries export as a
//     Prometheus-text /metrics endpoint, and every job response carries
//     its own latency breakdown (submitted → batched → started →
//     finished → served).
//
// Execution rides internal/exp — bounded workers, per-job wall-clock
// timeouts, panic isolation — and every result is a pure function of
// the request's semantic fields: the same submission returns the
// byte-identical result body at any worker count, which is what makes
// the cache sound.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"diag"
	"diag/internal/asm"
	"diag/internal/difftest"
	"diag/internal/journal"
	"diag/internal/mem"
	"diag/internal/workloads"
)

// Request is the submit endpoint's wire form. Exactly one job kind per
// request; fields that do not apply to the kind must be left zero.
type Request struct {
	// Kind selects the job type: "run", "sweep", "fault", or "difftest".
	Kind string `json:"kind"`

	// Program source: exactly one of Asm (RV32IMF assembly, assembled
	// server-side) or Workload (a named benchmark kernel) for run /
	// sweep / fault jobs. Difftest jobs generate their own programs and
	// accept neither.
	Asm      string `json:"asm,omitempty"`
	Workload string `json:"workload,omitempty"`
	Scale    int    `json:"scale,omitempty"`   // workload problem-size knob (default 1)
	Threads  int    `json:"threads,omitempty"` // workload thread count (default 1)
	SIMT     bool   `json:"simt,omitempty"`    // annotate the parallel loop with simt.s/simt.e

	// Machine names the model for run and fault jobs: "iss", "ooo", or
	// a DiAG configuration (I4C2, F4C2, F4C16, F4C32). Machines lists
	// the models a sweep runs, in order.
	Machine  string   `json:"machine,omitempty"`
	Machines []string `json:"machines,omitempty"`
	Rings    int      `json:"rings,omitempty"` // reshape the DiAG machine into N rings × 2 clusters
	Cores    int      `json:"cores,omitempty"` // baseline core count (machine "ooo")

	// Budgets (0 = library default).
	MaxCycles int64  `json:"max_cycles,omitempty"`
	MaxInst   uint64 `json:"max_inst,omitempty"`

	// Campaign shape for fault and difftest jobs.
	Trials int    `json:"trials,omitempty"` // default 100
	Seed   int64  `json:"seed,omitempty"`   // default 1
	Archs  string `json:"archs,omitempty"`  // difftest arch matrix ("" = all)

	// Parallel bounds the campaign-internal worker count. It cannot
	// change any result (reports are byte-identical at any parallelism),
	// so it is excluded from the cache key.
	Parallel int `json:"parallel,omitempty"`
}

// httpError is a client- or server-classified failure with the status
// code the handler should emit.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) *httpError {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// maxBody bounds the submit request body; programs are assembly text,
// so a megabyte is generous.
const maxBody = 1 << 20

// Job kinds.
const (
	KindRun      = "run"
	KindSweep    = "sweep"
	KindFault    = "fault"
	KindDifftest = "difftest"
)

// faultKinds are the machine kinds a fault campaign can perturb: the
// timing machines, not the untimed ISS.
var faultKinds = []string{"diag", "ooo"}

// Spec is a validated, normalized request: defaults applied, names
// canonicalized, the program assembled, and the cache-key digests
// computed. Everything downstream (batching, caching, execution) works
// from the Spec, never from the raw Request.
type Spec struct {
	Req   Request    // normalized copy
	Image *mem.Image // assembled program (nil for difftest)

	// ProgDigest is the FNV-1a-64 digest of the assembled image's
	// canonical encoding — the content address of the program, so two
	// textually different sources that assemble identically share cache
	// entries. Zero for difftest jobs (their programs derive from Seed).
	ProgDigest uint64
	// ConfigDigest canonicalizes every semantic field of the request
	// (journal.DigestJSON over a fixed-field-order struct). Parallel is
	// excluded: worker count never changes a result.
	ConfigDigest uint64
}

// Key returns the content address this spec's result is cached under.
func (sp *Spec) Key() cacheKey {
	return cacheKey{kind: sp.Req.Kind, prog: sp.ProgDigest, cfg: sp.ConfigDigest}
}

// Name labels the spec in worker-pool job names and logs.
func (sp *Spec) Name() string {
	switch sp.Req.Kind {
	case KindRun:
		return sp.Req.Kind + "/" + sp.Req.Machine
	case KindSweep:
		return sp.Req.Kind + "/" + strings.Join(sp.Req.Machines, ",")
	case KindFault:
		return sp.Req.Kind + "/" + sp.Req.Machine
	default:
		return sp.Req.Kind
	}
}

// ParseRequest decodes, validates, and normalizes one submit body.
// Every rejection is a 4xx *httpError; nothing in here panics on
// arbitrary input (FuzzSubmitRequest holds it to that).
func ParseRequest(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxBody+1))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("invalid request body: %v", err)
	}
	// A second document (or trailing garbage) is a malformed request,
	// not something to silently ignore.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("request body must be a single JSON object")
	}
	return validate(req)
}

// validate normalizes req into a Spec or rejects it with a 4xx error.
func validate(req Request) (*Spec, error) {
	req.Kind = strings.ToLower(strings.TrimSpace(req.Kind))
	switch req.Kind {
	case KindRun, KindSweep, KindFault, KindDifftest:
	case "":
		return nil, badRequest("missing job kind (run, sweep, fault, difftest)")
	default:
		return nil, badRequest("unknown job kind %q (run, sweep, fault, difftest)", req.Kind)
	}

	// Bound every numeric knob before touching anything expensive.
	switch {
	case req.Scale < 0 || req.Scale > 64:
		return nil, badRequest("scale %d out of range [0,64]", req.Scale)
	case req.Threads < 0 || req.Threads > 64:
		return nil, badRequest("threads %d out of range [0,64]", req.Threads)
	case req.Rings < 0 || req.Rings > 64:
		return nil, badRequest("rings %d out of range [0,64]", req.Rings)
	case req.Cores < 0 || req.Cores > 64:
		return nil, badRequest("cores %d out of range [0,64]", req.Cores)
	case req.Trials < 0 || req.Trials > 100_000:
		return nil, badRequest("trials %d out of range [0,100000]", req.Trials)
	case req.MaxCycles < 0:
		return nil, badRequest("max_cycles must be non-negative")
	case req.Parallel < 0 || req.Parallel > 256:
		return nil, badRequest("parallel %d out of range [0,256]", req.Parallel)
	}
	if req.Scale == 0 {
		req.Scale = 1
	}
	if req.Threads == 0 {
		req.Threads = 1
	}
	if req.Seed == 0 {
		req.Seed = 1
	}

	sp := &Spec{}
	switch req.Kind {
	case KindDifftest:
		if req.Asm != "" || req.Workload != "" {
			return nil, badRequest("difftest jobs generate their own programs; asm/workload must be empty")
		}
		if req.Machine != "" || len(req.Machines) > 0 {
			return nil, badRequest("difftest jobs run the whole arch matrix; use archs to narrow it")
		}
		if req.Trials == 0 {
			req.Trials = 100
		}
		if req.Archs == "" {
			req.Archs = "all"
		}
		if _, err := difftest.SelectArchs(req.Archs); err != nil {
			return nil, badRequest("bad archs: %v", err)
		}
	case KindFault:
		if err := buildImage(&req, sp); err != nil {
			return nil, err
		}
		m, err := normalizeMachine(req.Machine, faultKinds...)
		if err != nil {
			return nil, err
		}
		if req.Rings > 1 || req.Cores > 1 || req.Threads > 1 {
			return nil, badRequest("fault campaigns perturb one hart; rings/cores/threads must be 1")
		}
		req.Machine = m
		if req.Trials == 0 {
			req.Trials = 100
		}
	case KindRun:
		if err := buildImage(&req, sp); err != nil {
			return nil, err
		}
		m, err := normalizeMachine(req.Machine)
		if err != nil {
			return nil, err
		}
		req.Machine = m
	case KindSweep:
		if err := buildImage(&req, sp); err != nil {
			return nil, err
		}
		if len(req.Machines) == 0 {
			return nil, badRequest("sweep jobs need a non-empty machines list")
		}
		if len(req.Machines) > 16 {
			return nil, badRequest("sweep machines list too long (max 16)")
		}
		for i, m := range req.Machines {
			nm, err := normalizeMachine(m)
			if err != nil {
				return nil, err
			}
			req.Machines[i] = nm
		}
	}

	sp.Req = req
	sp.ConfigDigest = journal.DigestJSON(canonicalOf(req))
	return sp, nil
}

// buildImage assembles the request's program (from source or a named
// workload) into sp, computing its content digest.
func buildImage(req *Request, sp *Spec) error {
	hasAsm, hasWorkload := req.Asm != "", req.Workload != ""
	if hasAsm == hasWorkload {
		return badRequest("%s jobs need exactly one of asm or workload", req.Kind)
	}
	var img *mem.Image
	if hasAsm {
		var err error
		img, err = asm.Assemble(req.Asm)
		if err != nil {
			return badRequest("program does not assemble: %v", err)
		}
	} else {
		w, ok := workloads.ByName(req.Workload)
		if !ok {
			return badRequest("unknown workload %q", req.Workload)
		}
		var err error
		img, err = w.Build(workloads.Params{Scale: req.Scale, Threads: req.Threads, SIMT: req.SIMT})
		if err != nil {
			return badRequest("workload %s does not build with these parameters: %v", req.Workload, err)
		}
	}
	sp.Image = img
	sp.ProgDigest = journal.DigestJSON(img)
	return nil
}

// normalizeMachine canonicalizes a machine name of one of kinds (any
// kind when empty) or rejects it.
func normalizeMachine(name string, kinds ...string) (string, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return "", badRequest("missing machine (accepted: %s)", strings.Join(diag.Machines(kinds...), ", "))
	}
	m, err := diag.MachineByName(name, kinds...)
	if err != nil {
		return "", badRequest("%v", err)
	}
	return m.Name, nil
}

// canonical is the fixed-field-order identity of a request — every
// field that can change a result, and nothing else. The assembled
// program is represented by its digest, so source-text differences that
// assemble identically share an identity; Parallel is absent because
// results are byte-identical at any worker count.
type canonical struct {
	Kind      string
	Workload  string
	Scale     int
	Threads   int
	SIMT      bool
	Machine   string
	Machines  []string
	Rings     int
	Cores     int
	MaxCycles int64
	MaxInst   uint64
	Trials    int
	Seed      int64
	Archs     string
}

func canonicalOf(req Request) canonical {
	c := canonical{
		Kind: req.Kind, Workload: req.Workload, Scale: req.Scale,
		Threads: req.Threads, SIMT: req.SIMT, Machine: req.Machine,
		Machines: req.Machines, Rings: req.Rings, Cores: req.Cores,
		MaxCycles: req.MaxCycles, MaxInst: req.MaxInst,
		Trials: req.Trials, Seed: req.Seed, Archs: req.Archs,
	}
	return c
}
