package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Metric families: which end-to-end metric a kind's samples feed.
const (
	famISS    = "iss"
	famDiAG   = "diag"
	famOoO    = "ooo"
	famFigure = "figure"
	famJobs   = "jobs"
	famHit    = "hit"
	famMiss   = "miss"
)

// estimator reduces one kind's repetitions to one value. On a shared
// 2-vCPU host, phases of contention invisible from inside the VM (no
// steal, no other process) slow simulation ops by up to 1.8x for tens of
// seconds, so the median of a kind follows the host, while its fastest
// repetition follows the code. The fastest of a sub-ms request is luck
// (an idle server, both CPUs quiet); its lower quartile is steadier than
// both its minimum and its median.
type estimator int

const (
	best        estimator = iota // simulation-heavy ops (ms and more)
	lowQuartile                  // sub-ms requests
)

// opFunc runs one operation. It returns the duration of its timed part
// (checks excluded), the operation's canonical output, and an error when
// the operation or a check of its output failed. parent is the span the
// operation's own spans nest under; due is when the operation was meant
// to start, which request latencies are timed from.
type opFunc func(tr *tracer, parent int, due time.Time) (time.Duration, string, error)

// kind is one repeated operation of fixed, deterministic work.
type kind struct {
	name    string
	family  string
	est     estimator
	work    float64       // retired instructions (iss/diag/ooo) or campaign jobs (jobs) per op
	weight  float64       // share of the request mix (hit/miss)
	seeded  bool          // the output depends on --seed
	maxReps int           // 0 = unbounded
	pace    time.Duration // repetition i runs no earlier than i*pace into the loop
	run     opFunc
	post    func(k *kind) error // final check after the timed part (nil = none)
	prog    *program            // kernel kinds: the program and its references
	sim     simStats            // simulated statistics of kernel runs

	samples []float64 // seconds, untraced repetitions
	traced  []float64 // seconds, traced repetitions
	out     string    // canonical output of the first repetition
}

func (k *kind) reps() int { return len(k.samples) + len(k.traced) }

// value is the kind's estimate in seconds over its untraced samples.
func (k *kind) value() float64 { return estimate(k.est, k.samples) }

func estimate(e estimator, xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if e == best {
		m := xs[0]
		for _, x := range xs[1:] {
			m = math.Min(m, x)
		}
		return m
	}
	return quantile(xs, 0.25)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts attempted and failed operations; a failed op is never
// dropped from the count.
type tally struct {
	attempted, failed int
}

// do runs one repetition of k, due now, and records it.
func (b *bench) do(k *kind, tr *tracer) {
	root := tr.begin("op:"+k.name, 0)
	d, out, err := k.run(tr, root, time.Now())
	tr.end(root)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.record(k, tr != nil, d, out, err)
}

// record counts one repetition of k and keeps its sample; the caller
// holds b.mu.
func (b *bench) record(k *kind, traced bool, d time.Duration, out string, err error) {
	b.tally.attempted++
	if err == nil && k.out != "" && out != k.out {
		err = fmt.Errorf("output differs from the first repetition")
	}
	if err != nil {
		b.tally.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", k.name, err)
		return
	}
	if k.out == "" {
		k.out = out
	}
	if traced {
		k.traced = append(k.traced, d.Seconds())
	} else {
		k.samples = append(k.samples, d.Seconds())
	}
}

// minRounds guarantees every kind a few repetitions even when one round
// outlasts a short --seconds.
const minRounds = 3

// closedLoop runs the kinds round-robin on the calling goroutine, in a
// seeded order reshuffled every round, so that every kind sees the same
// host phases. After the first rounds, no round starts after until. In
// a traced run every other round records spans; the rest give the
// untraced reference the tracing overhead is measured against.
func (b *bench) closedLoop(ks []*kind, until time.Time, rounds int) {
	order := append([]*kind(nil), ks...)
	for round := 0; round < rounds || time.Now().Before(until); round++ {
		b.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var tr *tracer
		if b.rounds++; b.rounds%2 == 1 {
			tr = b.tr
		}
		ran := false
		for _, k := range order {
			if k.maxReps > 0 && k.reps() >= k.maxReps {
				continue
			}
			if time.Since(b.start) < k.pace*time.Duration(k.reps()) {
				ran = true
				continue
			}
			b.do(k, tr)
			ran = true
		}
		if !ran {
			return
		}
	}
}

// endToEnd combines the kinds' estimates into the end-to-end metrics.
// Kinds are combined with fixed weights; no quantile is ever taken
// across kinds of different cost.
func endToEnd(ks []*kind) (map[string]metric, error) {
	type acc struct{ work, secs, wsum, wval float64 }
	fam := map[string]*acc{}
	for _, k := range ks {
		v := k.value()
		if math.IsNaN(v) {
			return nil, fmt.Errorf("kind %s has no successful repetition", k.name)
		}
		a := fam[k.family]
		if a == nil {
			a = &acc{}
			fam[k.family] = a
		}
		a.work += k.work
		a.secs += v
		a.wsum += k.weight
		a.wval += k.weight * v
	}
	out := map[string]metric{}
	need := func(f string) (*acc, error) {
		if a := fam[f]; a != nil {
			return a, nil
		}
		return nil, fmt.Errorf("no %s kinds in this workload", f)
	}
	for _, f := range []string{famISS, famDiAG, famOoO} {
		a, err := need(f)
		if err != nil {
			return nil, err
		}
		out[f+"_mips"] = metric{a.work / a.secs / 1e6, "inst/us"}
	}
	a, err := need(famFigure)
	if err != nil {
		return nil, err
	}
	out["figure_s"] = metric{a.secs, "s"}
	if a, err = need(famJobs); err != nil {
		return nil, err
	}
	out["jobs_per_s"] = metric{a.work / a.secs, "jobs/s"}
	for _, f := range []string{famHit, famMiss} {
		a, err := need(f)
		if err != nil {
			return nil, err
		}
		out[f+"_ms"] = metric{a.wval / a.wsum * 1e3, "ms"}
	}
	return out, nil
}

// quantile is the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail is the highest of the p90/p99/p99.9 percentiles with at least
// ten samples beyond it, and the percentile it is (0 when even p90 has
// fewer than ten).
func tail(xs []float64) (float64, float64) {
	for _, p := range []float64{0.999, 0.99, 0.9} {
		if float64(len(xs))*(1-p) >= 10 {
			return quantile(xs, p), p * 100
		}
	}
	return quantile(xs, 0.5), 50
}
