package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"diag"
	"diag/internal/difftest"
	"diag/internal/fault"
	"diag/internal/obsv"
)

// execute runs the spec to completion and returns its canonical result
// body. The body is a pure function of the spec's semantic fields —
// no timestamps, no worker counts, maps only where encoding/json sorts
// keys — which is what lets the cache serve byte-identical repeats.
// workers bounds campaign-internal parallelism; onProgress (may be nil)
// observes coarse progress; observe attaches a fresh obsv.Registry to
// each timing-machine run and returns the merged snapshots for the
// server to fold into /metrics.
func (sp *Spec) execute(ctx context.Context, workers int, onProgress func(done, total int), observe bool) (body []byte, regs []*obsv.Snapshot, err error) {
	progress := func(done, total int) {
		if onProgress != nil {
			onProgress(done, total)
		}
	}
	var v any
	switch sp.Req.Kind {
	case KindRun:
		var reg *obsv.Registry
		v, reg, err = sp.runOne(ctx, sp.Req.Machine, observe)
		if reg != nil {
			regs = append(regs, reg.Snapshot())
		}
	case KindSweep:
		rs := make([]*runResult, 0, len(sp.Req.Machines))
		progress(0, len(sp.Req.Machines))
		for i, m := range sp.Req.Machines {
			r, reg, rerr := sp.runOne(ctx, m, observe)
			if rerr != nil {
				return nil, regs, fmt.Errorf("machine %s: %w", m, rerr)
			}
			if reg != nil {
				regs = append(regs, reg.Snapshot())
			}
			rs = append(rs, r)
			progress(i+1, len(sp.Req.Machines))
		}
		v = rs
	case KindFault:
		v, err = sp.runFault(ctx, workers)
	case KindDifftest:
		v, err = sp.runDifftest(ctx, workers)
	default:
		err = fmt.Errorf("unknown job kind %q", sp.Req.Kind)
	}
	if err != nil {
		return nil, regs, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, regs, err
	}
	return buf.Bytes(), regs, nil
}

// runResult is the canonical result of one machine run.
type runResult struct {
	Machine   string  `json:"machine"`
	Cycles    int64   `json:"cycles"`
	Retired   uint64  `json:"retired"`
	IPC       float64 `json:"ipc,omitempty"`
	MemDigest string  `json:"mem_digest"`

	// Energy is the modeled energy breakdown (timing machines only).
	Energy *diag.EnergyBreakdown `json:"energy,omitempty"`
	Joules float64               `json:"joules,omitempty"`

	// Stats is the machine's full counter set (diag.Stats or
	// diag.BaselineStats); absent for the untimed ISS.
	Stats any `json:"stats,omitempty"`
}

// runOne executes the spec's program on one named machine.
func (sp *Spec) runOne(ctx context.Context, machine string, observe bool) (*runResult, *obsv.Registry, error) {
	opts := []diag.RunOption{diag.WithContext(ctx)}
	if sp.Req.MaxCycles > 0 {
		opts = append(opts, diag.WithMaxCycles(sp.Req.MaxCycles))
	}
	if sp.Req.MaxInst > 0 {
		opts = append(opts, diag.WithMaxInstructions(sp.Req.MaxInst))
	}
	var reg *obsv.Registry
	if observe && machine != "iss" {
		reg = obsv.NewRegistry(0)
		opts = append(opts, diag.WithObserver(reg))
	}

	t, cfgEnergy, err := sp.target(machine)
	if err != nil {
		return nil, nil, err
	}
	res, err := t.Run(sp.Image, opts...)
	if err != nil {
		return nil, reg, err
	}
	r := &runResult{
		Machine:   machine,
		Cycles:    res.Cycles,
		Retired:   res.Retired,
		MemDigest: hex16(res.Mem.Digest()),
	}
	switch {
	case res.DiAG != nil:
		r.IPC = res.DiAG.IPC()
		r.Stats = res.DiAG
	case res.Baseline != nil:
		r.IPC = res.Baseline.IPC()
		r.Stats = res.Baseline
	}
	if cfgEnergy != nil {
		e := cfgEnergy(res)
		r.Energy = &e
		r.Joules = e.Total()
	}
	return r, reg, nil
}

// target resolves a normalized machine name into a Target plus its
// energy model (nil for the untimed ISS).
func (sp *Spec) target(machine string) (diag.Target, func(*diag.Result) diag.EnergyBreakdown, error) {
	m, err := diag.MachineByName(machine)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case m.Baseline != nil:
		cfg := *m.Baseline
		if sp.Req.Cores > 1 {
			cfg = diag.BaselineMulticore(sp.Req.Cores)
		}
		return diag.OoO(cfg), func(res *diag.Result) diag.EnergyBreakdown {
			return diag.BaselineEnergy(cfg, *res.Baseline, 2000)
		}, nil
	case m.DiAG != nil:
		cfg := *m.DiAG
		if sp.Req.Rings > 0 {
			cfg = diag.MultiRing(cfg, sp.Req.Rings, 2)
		}
		return diag.DiAG(cfg), func(res *diag.Result) diag.EnergyBreakdown {
			return diag.Energy(cfg, *res.DiAG)
		}, nil
	}
	return diag.ISS(), nil, nil
}

// faultResult is the canonical result of a fault-campaign job.
type faultResult struct {
	Machine string             `json:"machine"`
	Trials  int                `json:"trials"`
	Seed    int64              `json:"seed"`
	AVF     map[string]float64 `json:"avf"`
	Table   string             `json:"table"`
}

// runFault executes a Monte Carlo fault campaign; the report is
// byte-identical at any worker count, so workers stays out of the
// cache key.
func (sp *Spec) runFault(ctx context.Context, workers int) (*faultResult, error) {
	m, err := diag.MachineByName(sp.Req.Machine, faultKinds...)
	if err != nil {
		return nil, err
	}
	c := &fault.Campaign{
		Image:   sp.Image,
		Trials:  sp.Req.Trials,
		Seed:    sp.Req.Seed,
		Workers: workers,
		DiAG:    m.DiAG,
		OoO:     m.Baseline,
	}
	rep, err := c.Run(ctx)
	if err != nil {
		return nil, err
	}
	avf := make(map[string]float64)
	for _, cl := range fault.DefaultSites(c.DiAG != nil) {
		avf[cl.String()] = rep.AVF(cl)
	}
	return &faultResult{
		Machine: m.Name, Trials: len(rep.Trials), Seed: rep.Seed,
		AVF: avf, Table: rep.Table(),
	}, nil
}

// difftestResult is the canonical result of a conformance-fuzz job.
type difftestResult struct {
	Seed     int64    `json:"seed"`
	Trials   int      `json:"trials"`
	Archs    []string `json:"archs"`
	Diverged int      `json:"diverged"`
	Report   string   `json:"report"`
}

// runDifftest executes a differential conformance campaign.
func (sp *Spec) runDifftest(ctx context.Context, workers int) (*difftestResult, error) {
	rep, err := difftest.Run(ctx, difftest.Options{
		Seed:    sp.Req.Seed,
		Trials:  sp.Req.Trials,
		Archs:   sp.Req.Archs,
		Workers: workers,
	})
	if err != nil {
		return nil, err
	}
	return &difftestResult{
		Seed: rep.Seed, Trials: rep.Trials, Archs: rep.Archs,
		Diverged: len(rep.Diverged), Report: rep.Format(),
	}, nil
}
