// Command perfbench is the repository's benchmark: it drives the diag
// library through its public entry points on one of three workloads,
// checks every output, and prints one JSON result line.
//
//	perfbench --workload kernels|batch|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// METRICS.md records how each metric is estimated and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts carries the command line into the workloads.
type opts struct {
	workload   string
	seed       int64
	seconds    int
	trace      bool
	traceDir   string
	scratchDir string
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: kernels, batch or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "directory for the span dump of a traced run")
	flag.StringVar(&o.scratchDir, "scratch-dir", ".bench_build/scratch", "directory for journals written by the benchmark")
	flag.Parse()
	o.trace = traceFlag != 0
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (kernels, batch, serve)\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(o.scratchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// workload is one traffic shape: set-up builds its environment from
// the seed.
type workload struct {
	name  string
	setup func(b *bench) (*setupEnv, error)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range []workload{
		{"kernels", setupKernels},
		{"batch", setupBatch},
		{"serve", setupServe},
	} {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupReps is how many times set-up runs from scratch; setup_s is the
// median. Only the last environment is measured.
const setupReps = 9

// bench is the state one run shares across set-up, measurement and
// reporting.
type bench struct {
	o     opts
	rng   *rand.Rand
	tr    *tracer // nil in untraced runs
	heap  heapSampler
	chk   checker    // miss responses awaiting their library check
	util  workerBusy // engine busy time of traced figure regenerations
	extra map[string]metric

	start  time.Time // start of the timed part
	rounds int       // closed-loop rounds so far

	mu    sync.Mutex // guards tally and the kinds' samples
	tally tally
}

func run(w workload, o opts) (*result, error) {
	b := &bench{o: o, rng: rand.New(rand.NewSource(o.seed)), extra: map[string]metric{}}
	if o.trace {
		b.tr = newTracer()
	}

	var setups []float64
	var e *setupEnv
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		b.rng = rand.New(rand.NewSource(o.seed))
		runtime.GC()
		t0 := time.Now()
		var err error
		e, err = w.setup(b)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			e.close()
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
	}
	defer e.close()
	if err := e.prepare(); err != nil {
		return nil, fmt.Errorf("%s references: %w", w.name, err)
	}
	kinds := append(append([]*kind(nil), e.loop...), e.open...)

	// The timed part starts from a collected heap so every run's peak
	// measures the same work.
	runtime.GC()
	m0 := readRuntime()
	b.heap.start()
	start := time.Now()
	span := time.Duration(o.seconds) * time.Second
	if o.trace {
		// The direct layer cases take the rest of the run.
		span = span * 3 / 4
	}
	e.measure(b, start.Add(span))
	if o.trace {
		if err := b.layerCases(e); err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)
	peak := b.heap.stop()
	m1 := readRuntime()

	// Checks that need reference runs happen after the timed part.
	for _, k := range kinds {
		if k.post == nil || k.out == "" {
			continue
		}
		if err := k.post(k); err != nil {
			b.tally.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", k.name, err)
		}
	}
	b.tally.failed += b.chk.verify()

	res := &result{
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	printOutputs(b, kinds)
	printKinds(kinds)
	fmt.Printf("perfbench: %s seed=%d ops=%d failed=%d wall=%.2fs num_cpu=%d\n",
		w.name, o.seed, res.Attempted, res.Failed, wall.Seconds(), runtime.NumCPU())
	fmt.Println("perfbench: no accuracy figure is reported: the paper-vs-model numbers are prose in EXPERIMENTS.md, not a pinned ledger")

	if !o.trace {
		e2e, err := endToEnd(kinds)
		if err != nil {
			// A kind with no successful repetition leaves its metric
			// undefined; the result still reports the failed ops.
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.Correct = false
		}
		for k, v := range e2e {
			res.Metrics[k] = v
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["heap_peak_mb"] = metric{peak / (1 << 20), "MiB"}
		return res, nil
	}

	for k, v := range b.perLayer(e, kinds) {
		res.Metrics[k] = v
	}
	for k, v := range b.extra {
		res.Metrics[k] = v
	}
	ops := float64(res.Attempted)
	res.Metrics["runtime.gc_cpu_frac"] = metric{frac(m1.gcCPU-m0.gcCPU, m1.totalCPU-m0.totalCPU), "ratio"}
	res.Metrics["runtime.alloc_mb_per_op"] = metric{(m1.allocBytes - m0.allocBytes) / (1 << 20) / ops, "MiB"}
	for k, v := range res.Metrics {
		// A layer the run never reached (no samples) has no value;
		// JSON cannot carry NaN.
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: no samples\n", k)
			delete(res.Metrics, k)
		}
	}
	if err := b.tr.dump(o.traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, o.seed)); err != nil {
		return nil, err
	}
	return res, nil
}

func frac(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// printOutputs prints the digest of every kind's simulated output: one
// over the kinds whose inputs do not depend on --seed, which repeats
// exactly across all runs of unchanged code, and one over the seeded
// kinds, which repeats for equal seeds.
func printOutputs(b *bench, kinds []*kind) {
	fixed, seeded := newDigest(), newDigest()
	for _, k := range sortedKinds(kinds) {
		d := fixed
		if k.seeded {
			d = seeded
		}
		d.add(k.name)
		d.add(k.out)
	}
	fmt.Printf("perfbench: outputs %s fixed=%016x seeded=%016x (seed %d)\n",
		b.o.workload, fixed.sum(), seeded.sum(), b.o.seed)
}

// printKinds prints every kind's repetitions and estimates.
func printKinds(kinds []*kind) {
	fmt.Println("perfbench: kind family reps best_ms p10_ms p25_ms median_ms traced_reps")
	for _, k := range sortedKinds(kinds) {
		fmt.Printf("perfbench:   %-28s %-6s %4d %10.3f %10.3f %10.3f %10.3f %4d\n", k.name, k.family, len(k.samples),
			estimate(best, k.samples)*1e3, quantile(k.samples, 0.1)*1e3, quantile(k.samples, 0.25)*1e3,
			median(k.samples)*1e3, len(k.traced))
	}
}

func sortedKinds(ks []*kind) []*kind {
	out := append([]*kind(nil), ks...)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// digest is FNV-1a-64 over a sequence of strings.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) add(s string) {
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 1099511628211
	}
	d.h ^= 0xff
	d.h *= 1099511628211
}

func (d *digest) sum() uint64 { return d.h }

// heapSampler records the live Go heap as marked by each garbage
// collection while the timed part runs. The maximum is an extreme
// value that varies by a factor of two between runs (it depends on
// which operation a collection happens to interrupt), so heap_peak_mb
// is the 90th percentile over collections.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	live  []float64
}

func (h *heapSampler) start() {
	h.stopc = make(chan struct{})
	h.live = nil
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				h.live = append(h.live, float64(s[1].Value.Uint64()))
			}
		}
	}()
}

// stop ends sampling and returns the 90th percentile of the live heap
// in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	if len(h.live) == 0 {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64())
	}
	return quantile(h.live, 0.9)
}

// runtimeTotals are the cumulative runtime counters the traced run
// differences over the timed part.
type runtimeTotals struct {
	gcCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeTotals {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeTotals{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: float64(s[2].Value.Uint64()),
	}
}
