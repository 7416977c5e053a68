package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"diag"
	"diag/internal/asm"
	"diag/internal/branch"
	"diag/internal/cache"
	idiag "diag/internal/diag"
	"diag/internal/explore"
	"diag/internal/fault"
	"diag/internal/isa"
	"diag/internal/iss"
	"diag/internal/journal"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/workloads"
)

// predecodeEntries is the size of the iss predecode cache the decode
// case is sized against.
const predecodeEntries = 4096

// bestOf times f reps times and returns the fastest run.
func bestOf(reps int, f func() error) (time.Duration, error) {
	b := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		b = min(b, time.Since(t0))
	}
	return b, nil
}

// pairBest times a and b alternately and returns each one's fastest
// run, so both see the same host phases.
func pairBest(reps int, a, b func() error) (time.Duration, time.Duration, error) {
	ba, bb := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		da, err := bestOf(1, a)
		if err != nil {
			return 0, 0, err
		}
		db, err := bestOf(1, b)
		if err != nil {
			return 0, 0, err
		}
		ba, bb = min(ba, da), min(bb, db)
	}
	return ba, bb, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// layerCases times the layers that are reachable only inside a machine
// by calling their exported functions directly, and the server's
// per-submission image work, under spans of their own. Results go into
// b.extra.
func (b *bench) layerCases(e *setupEnv) error {
	root := b.tr.begin("layers", 0)
	defer b.tr.end(root)
	tr := b.tr
	put := func(name string, v float64, unit string) { b.extra[name] = metric{v, unit} }

	x264, err := buildKernel(nil, 0, kernel{"x264", "compute", 4, false}, 1, nil)
	if err == nil {
		err = x264.golden()
	}
	if err != nil {
		return err
	}

	// Image build, assembly and digest of every request of the mix:
	// what the server does before its cache lookup.
	reqs := append([]*request(nil), e.hits...)
	for _, m := range missMachines {
		r, err := missRequest(m, b.rng.Uint32())
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	for i := 0; i < 20; i++ {
		for _, r := range reqs {
			if err := layerDigest(tr, root, r); err != nil {
				return err
			}
		}
	}
	srcs := []string{hitAsm, fmt.Sprintf(missAsm, 7)}
	lines := 0
	for _, s := range srcs {
		lines += strings.Count(strings.TrimSpace(s), "\n") + 1
	}
	d, err := bestOf(50, func() error {
		for _, s := range srcs {
			if _, err := asm.Assemble(s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("asm.ns_per_line", float64(d)/float64(lines), "ns")

	// isa: decode a stream of twice the predecode cache's entries.
	var words []uint32
	for len(words) < 2*predecodeEntries {
		for _, p := range e.progs {
			words = append(words, p.img.Text...)
		}
		words = append(words, x264.img.Text...)
	}
	words = words[:2*predecodeEntries]
	d, err = bestOf(20, func() error {
		for _, w := range words {
			isa.Decode(w) // data words decode to errors; both paths count
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("isa.decode_ns", float64(d)/float64(len(words)), "ns")

	// iss: superblock hit rate of the kernel programs (the block cache
	// holds 1024 blocks; every kernel's loop fits).
	var hits, misses float64
	for _, p := range append(append([]*program(nil), e.progs...), x264) {
		m := mem.New()
		entry, err := p.img.Load(m)
		if err != nil {
			return err
		}
		cpu := iss.New(m, entry)
		cpu.X[isa.TP], cpu.X[isa.GP] = 0, 1
		cpu.Run(1 << 40)
		if cpu.Err != nil {
			return cpu.Err
		}
		h, ms, _ := cpu.SuperblockStats()
		hits, misses = hits+float64(h), misses+float64(ms)
	}
	put("iss.sb_hit_rate", frac(hits, hits+misses), "ratio")

	// Machine construction, which every short simulation pays.
	d, err = bestOf(30, func() error {
		_, err := tr.timed("diag.new_machine", root, func() error {
			_, err := idiag.NewMachine(idiag.F4C2(), x264.img)
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	put("diag.machine_setup_us", us(d), "us")
	d, err = bestOf(30, func() error {
		_, err := tr.timed("ooo.new_machine", root, func() error {
			_, err := ooo.NewMachine(ooo.Baseline(), x264.img)
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	put("ooo.machine_setup_us", us(d), "us")

	// cache: an L1D like F4C2's (64 KiB, 4-way, 64 B lines, 4 banks)
	// over a stream that fits (32 KiB) and one that spills (1 MiB).
	for _, c := range []struct {
		name  string
		bytes uint32
	}{{"cache.access_ns_hit", 32 << 10}, {"cache.access_ns_miss", 1 << 20}} {
		l1 := cache.New(cache.Config{Name: "L1D", Size: 64 << 10, LineSize: 64, Assoc: 4, Latency: 2, Banks: 4},
			&cache.DRAM{Latency: 100})
		var now int64
		d, err := bestOf(10, func() error {
			for a := uint32(0); a < 4<<20; a += 64 {
				now = l1.Access(now, a%c.bytes, a&128 != 0)
			}
			return nil
		})
		if err != nil {
			return err
		}
		put(c.name, float64(d)/float64((4<<20)/64), "ns")
	}

	// branch: Tournament predict+update over 8192 branch sites with a
	// seeded, biased outcome stream.
	pred := branch.NewTournament(ooo.Baseline().PredictorBits)
	rng := rand.New(rand.NewSource(b.o.seed))
	pcs := make([]uint32, 1<<16)
	outs := make([]bool, len(pcs))
	for i := range pcs {
		pcs[i] = uint32(rng.Intn(8192)) << 2
		outs[i] = rng.Intn(4) != 0
	}
	d, err = bestOf(10, func() error {
		for i, pc := range pcs {
			pred.Predict(pc)
			pred.Update(pc, outs[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("branch.predict_update_ns", float64(d)/float64(len(pcs)), "ns")

	// obsv: a DiAG run with a Metrics observer against one without.
	plain, observed, err := pairBest(5,
		func() error { _, err := diag.DiAG(diag.F4C2()).Run(x264.img); return err },
		func() error {
			_, err := diag.DiAG(diag.F4C2()).Run(x264.img, diag.WithObserver(diag.NewMetrics(0)))
			return err
		})
	if err != nil {
		return err
	}
	put("obsv.overhead_ratio", float64(observed)/float64(plain), "ratio")

	// mem: Clone, ApplyDiff and Digest over a 1 MiB+ memory, with one
	// word changed per page for the diff.
	chase, err := buildChase(nil, 0, rand.New(rand.NewSource(b.o.seed)), 1<<18)
	if err != nil {
		return err
	}
	base := mem.New()
	if _, err := chase.img.Load(base); err != nil {
		return err
	}
	mb := float64(base.Footprint()) / (1 << 20)
	mod := base.Clone()
	for a := uint32(chaseBase); a < chaseBase+4<<18; a += mem.PageSize {
		mod.StoreWord(a, mod.LoadWord(a)+1)
	}
	d, err = bestOf(10, func() error {
		_, err := tr.timed("mem.clone", root, func() error { base.Clone(); return nil })
		return err
	})
	if err != nil {
		return err
	}
	put("mem.clone_us_per_mb", us(d)/mb, "us/MiB")
	d, err = bestOf(10, func() error {
		dst := base.Clone()
		_, err := tr.timed("mem.applydiff", root, func() error { dst.ApplyDiff(base, mod); return nil })
		return err
	})
	if err != nil {
		return err
	}
	put("mem.applydiff_us_per_mb", us(d)/mb, "us/MiB")
	d, err = bestOf(10, func() error {
		_, err := tr.timed("mem.digest", root, func() error { base.Digest(); return nil })
		return err
	})
	if err != nil {
		return err
	}
	put("mem.digest_us_per_mb", us(d)/mb, "us/MiB")

	// Sharding: a 4-ring / 4-core partitioned hotspot, serial against
	// WithShards(nproc).
	hot, _ := workloads.ByName("hotspot")
	img4, err := hot.Build(workloads.Params{Scale: 1, Threads: 4})
	if err != nil {
		return err
	}
	shards := runtime.NumCPU()
	for _, c := range []struct {
		name string
		t    func() diag.Target
	}{
		{"diag.shard_speedup", func() diag.Target { return diag.DiAG(diag.MultiRing(diag.F4C16(), 4, 4)) }},
		{"ooo.shard_speedup", func() diag.Target { return diag.OoO(diag.BaselineMulticore(4)) }},
	} {
		serial, sharded, err := pairBest(3,
			func() error { _, err := c.t().Run(img4); return err },
			func() error { _, err := c.t().Run(img4, diag.WithShards(shards)); return err })
		if err != nil {
			return err
		}
		put(c.name, float64(serial)/float64(sharded), "ratio")
	}

	// snap: checkpoint x264 half way on each machine kind, then time
	// Encode and DecodeSnapshot.
	var enc, dec, size float64
	targets := []func() diag.Target{
		diag.ISS,
		func() diag.Target { return diag.DiAG(diag.F4C2()) },
		func() diag.Target { return diag.OoO(diag.Baseline()) },
	}
	for _, mk := range targets {
		t := mk()
		if _, err := t.Run(x264.img, diag.WithRunUntil(x264.retired/2)); err != nil {
			return err
		}
		s, err := t.Checkpoint()
		if err != nil {
			return err
		}
		var bs []byte
		de, err := bestOf(10, func() error {
			_, err := tr.timed("snap.encode", root, func() error {
				var err error
				bs, err = s.Encode()
				return err
			})
			return err
		})
		if err != nil {
			return err
		}
		dd, err := bestOf(10, func() error {
			_, err := tr.timed("snap.decode", root, func() error {
				_, err := diag.DecodeSnapshot(bs)
				return err
			})
			return err
		})
		if err != nil {
			return err
		}
		enc, dec, size = enc+us(de), dec+us(dd), size+float64(len(bs))
	}
	n := float64(len(targets))
	put("snap.encode_us", enc/n, "us")
	put("snap.decode_us", dec/n, "us")
	put("snap.bytes", size/n, "bytes")

	// fault: the same 20-trial campaign warm-forked and cold.
	hotImg, err := hot.Build(workloads.Params{Scale: 1, Threads: 1})
	if err != nil {
		return err
	}
	cfg := idiag.F4C2()
	camp := func(warmup uint64) func() error {
		return func() error {
			c := &fault.Campaign{Image: hotImg, DiAG: &cfg, Trials: 20, Seed: b.o.seed, Workers: workers(), Warmup: warmup}
			_, err := c.Run(context.Background())
			return err
		}
	}
	warm, cold, err := pairBest(3, camp(2000), camp(0))
	if err != nil {
		return err
	}
	put("fault.warm_fork_ratio", float64(warm)/float64(cold), "ratio")

	// journal: appends of a 64-byte result, each fsync'd.
	path := filepath.Join(b.o.scratchDir, "append.journal")
	const appends = 40
	j, err := journal.Create(path, journal.Manifest{Tool: "perfbench", Jobs: appends})
	if err != nil {
		return err
	}
	sw, err := j.BeginSweep(appends, "append")
	if err != nil {
		j.Close()
		return err
	}
	payload := make([]byte, 64)
	d, err = tr.timed("journal.append", root, func() error {
		for i := 0; i < appends; i++ {
			if err := sw.Done(i, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	put("journal.append_us", us(d)/appends, "us")

	// explore: expanding the 960-candidate paper space.
	d, err = bestOf(5, func() error {
		_, err := tr.timed("explore.expand", root, func() error {
			_, _, err := explore.PaperSpace().Expand()
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	put("explore.expand_ms", float64(d)/1e6, "ms")
	return nil
}

// perLayer derives the per-layer metrics of a traced run from the span
// ledger, the kinds' samples and simulated statistics, and the server.
func (b *bench) perLayer(e *setupEnv, kinds []*kind) map[string]metric {
	lt := b.tr.selfTimes()
	printSelfTimes(lt)
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	mean := func(name string, scale float64) float64 {
		if l := lt[name]; l != nil && l.n > 0 {
			return float64(l.self) / float64(l.n) / scale
		}
		return 0
	}
	put("workloads.build_ms", mean("workloads.build", 1e6), "ms")
	put("journal.digest_us", mean("journal.digest", 1e3), "us")

	// Per machine: self time of the traced runs per retired instruction,
	// and simulated rates over all runs.
	var l1dAcc, l1dMiss float64
	for _, f := range []string{famISS, famDiAG, famOoO} {
		var inst float64
		var s simStats
		for _, k := range kinds {
			if k.family != f {
				continue
			}
			inst += k.work * float64(len(k.traced))
			s.cycles += k.sim.cycles
			s.retired += k.sim.retired
			s.reuseHits += k.sim.reuseHits
			s.reuseMisses += k.sim.reuseMisses
			s.branches += k.sim.branches
			s.mispredictions += k.sim.mispredictions
			l1dAcc += k.sim.l1dAccesses
			l1dMiss += k.sim.l1dMisses
		}
		if l := lt[f+".run"]; l != nil && inst > 0 {
			put(f+".ns_per_inst", float64(l.self)/inst, "ns")
		}
		switch f {
		case famDiAG:
			put("diag.ipc", frac(s.retired, s.cycles), "inst/cycle")
			put("diag.reuse_rate", frac(s.reuseHits, s.reuseHits+s.reuseMisses), "ratio")
		case famOoO:
			put("ooo.ipc", frac(s.retired, s.cycles), "inst/cycle")
			put("branch.mispredict_rate", frac(s.mispredictions, s.branches), "ratio")
		}
	}
	put("cache.l1d_miss_rate", frac(l1dMiss, l1dAcc), "ratio")

	// Campaign and figure throughput from the untraced repetitions.
	var figSecs float64
	var figs int
	rate := map[string][2]float64{}
	for _, k := range kinds {
		v := k.value()
		if math.IsNaN(v) {
			continue
		}
		switch {
		case k.family == famFigure:
			figSecs += v
			figs++
		case k.family == famJobs:
			key := strings.TrimPrefix(k.name, "probe/")
			r := rate[key]
			rate[key] = [2]float64{r[0] + k.work, r[1] + v}
		}
	}
	put("bench.fig_ms", figSecs/float64(max(figs, 1))*1e3, "ms")
	put("fault.trials_per_s", frac(rate["fault"][0], rate["fault"][1]), "jobs/s")
	put("difftest.progs_per_s", frac(rate["difftest"][0], rate["difftest"][1]), "jobs/s")
	put("explore.evals_per_s", frac(rate["explore"][0], rate["explore"][1]), "jobs/s")
	put("exp.worker_util", frac(float64(b.util.busy.Load()), float64(b.util.wall.Load())), "ratio")

	// Tracing overhead: traced against untraced repetitions of the same
	// kinds, each reduced by its own estimator.
	var tsum, usum float64
	for _, k := range kinds {
		t, u := estimate(k.est, k.traced), estimate(k.est, k.samples)
		if !math.IsNaN(t) && !math.IsNaN(u) {
			tsum, usum = tsum+t, usum+u
		}
	}
	put("trace.overhead_pct", (frac(tsum, usum)-1)*100, "%")

	b.serverLayers(e, kinds, put)
	return out
}

// serverLayers adds the server's per-layer metrics.
func (b *bench) serverLayers(e *setupEnv, kinds []*kind, put func(string, float64, string)) {
	s := e.svc
	s.mu.Lock()
	var queued, batch, sim []float64
	for _, t := range s.timings {
		queued = append(queued, t.QueuedMs)
		batch = append(batch, t.BatchMs)
		sim = append(sim, t.SimMs)
	}
	late := append([]float64(nil), s.lateness...)
	refused := s.refused
	s.mu.Unlock()
	put("server.queued_ms", median(queued), "ms")
	put("server.batch_wait_ms", median(batch), "ms")
	put("server.sim_ms", median(sim), "ms")
	put("server.gen_late_ms", median(late)*1e3, "ms")

	if c, err := s.counters(); err == nil {
		h, m := c["diag_server_cache_hits_total"], c["diag_server_cache_misses_total"]
		put("server.cache_hit_ratio", frac(h, h+m), "ratio")
		put("server.refused", float64(refused)+c["diag_server_jobs_rejected_total"], "count")
		put("server.jobs_retained", c["diag_server_jobs_submitted_total"], "count")
	} else {
		fmt.Println("perfbench: reading /metrics:", err)
	}

	// Pooled latency distributions of the untraced requests, reported
	// with their sample counts; not gated.
	for _, f := range []string{famHit, famMiss} {
		var xs []float64
		for _, k := range kinds {
			if k.family == f {
				xs = append(xs, k.samples...)
			}
		}
		t, p := tail(xs)
		put("server."+f+"_p50_ms", median(xs)*1e3, "ms")
		put("server."+f+"_tail_ms", t*1e3, "ms")
		put("server."+f+"_tail_pct", p, "%")
		put("server."+f+"_n", float64(len(xs)), "count")
	}
}
