// Package bench regenerates every table and figure of the paper's
// evaluation (§7) from the machine models in this repository. Each
// experiment returns a Figure: named series of per-benchmark values plus
// their means, rendered as a fixed-width text table (the repo's analogue
// of the paper's bar charts).
//
// Every figure is a sweep of independent simulations (workload ×
// machine × scale), so generators do not loop inline: they submit jobs
// to the experiment engine (internal/exp) through a Runner. The engine
// returns results in submission order, which makes a parallel
// regeneration byte-identical to a serial one. A Runner (NewRunner)
// carries the worker count, cancellation, per-simulation timeouts,
// journaling and progress reporting; its methods (Fig9a, …) are the
// figure generators.
//
// Experiment index (see DESIGN.md; the Fig* and StallBreakdown
// generators are Runner methods):
//
//	Table1()        — qualitative stage comparison (§5.3)
//	Table2()        — hardware configurations
//	Table3()        — area/power breakdown (via internal/power)
//	Fig9a / Fig9b   — Rodinia single-/multi-thread relative performance
//	Fig10a / Fig10b — SPEC single-/multi-thread relative performance
//	Fig11()         — energy breakdown by component
//	Fig12()         — Rodinia energy-efficiency improvement
//	StallBreakdown()— §7.3.2 stall-source shares
package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"diag/internal/diag"
	"diag/internal/exp"
	"diag/internal/journal"
	"diag/internal/mem"
	"diag/internal/ooo"
	"diag/internal/power"
	"diag/internal/stats"
	"diag/internal/workloads"
)

// MultiThreadRings and MultiThreadCores reproduce the paper's parallel
// shapes: DiAG "16-by-2 format" (§7.2.1) against a 12-core baseline.
const (
	MultiThreadRings = 16
	MultiThreadCores = 12
)

// Entry is one benchmark's row in a figure.
type Entry struct {
	Workload string
	Class    string
	Values   map[string]float64
}

// Figure is one regenerated evaluation artifact.
type Figure struct {
	ID      string
	Title   string
	Series  []string
	Entries []Entry
	Means   map[string]float64 // geometric mean per series
}

// Table renders the figure as text.
func (f *Figure) Table() *stats.Table {
	header := append([]string{"benchmark", "class"}, f.Series...)
	t := stats.NewTable(fmt.Sprintf("%s: %s", f.ID, f.Title), header...)
	for _, e := range f.Entries {
		row := []any{e.Workload, e.Class}
		for _, s := range f.Series {
			row = append(row, e.Values[s])
		}
		t.AddRowf(row...)
	}
	mean := []any{"geomean", ""}
	for _, s := range f.Series {
		mean = append(mean, f.Means[s])
	}
	t.AddRowf(mean...)
	return t
}

func (f *Figure) computeMeans() {
	f.Means = map[string]float64{}
	for _, s := range f.Series {
		var xs []float64
		for _, e := range f.Entries {
			if v, ok := e.Values[s]; ok {
				xs = append(xs, v)
			}
		}
		f.Means[s] = stats.GeoMean(xs)
	}
}

// ---- experiment scheduling ----

// Options configure how a Runner schedules the simulations behind a
// figure.
type Options struct {
	// Workers is the number of simulations in flight; <= 0 or 1 runs
	// serially.
	Workers int
	// Timeout bounds each simulation's wall-clock time (0 = none). An
	// expired simulation fails its figure with diagerr.ErrTimeout.
	Timeout time.Duration
	// OnProgress, when non-nil, observes every completed simulation.
	OnProgress func(exp.Progress)
	// Journal, when non-nil, records every simulation's stats durably as
	// they complete; a resumed regeneration replays recorded simulations
	// and runs only the rest. Each figure is one journal sweep, so the
	// same figure sequence must be requested on resume.
	Journal *journal.Journal
	// Retry re-attempts transient simulation failures (wall-clock
	// timeouts, panics) with deterministic backoff.
	Retry exp.Retry
}

// statsPayload is the journal encoding of a simulation result: exactly
// one of the two stats kinds, tagged by field.
type statsPayload struct {
	DiAG *diag.Stats `json:",omitempty"`
	OoO  *ooo.Stats  `json:",omitempty"`
}

func encodeStats(v any) ([]byte, error) {
	switch st := v.(type) {
	case diag.Stats:
		return json.Marshal(statsPayload{DiAG: &st})
	case ooo.Stats:
		return json.Marshal(statsPayload{OoO: &st})
	}
	return nil, fmt.Errorf("bench: unjournalable result type %T", v)
}

func decodeStats(b []byte) (any, error) {
	var p statsPayload
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, err
	}
	switch {
	case p.DiAG != nil:
		return *p.DiAG, nil
	case p.OoO != nil:
		return *p.OoO, nil
	}
	return nil, fmt.Errorf("bench: journaled result tags neither machine")
}

// Runner regenerates figures by fanning their simulations across the
// experiment engine's worker pool under one context.
type Runner struct {
	ctx context.Context
	opt Options
}

// NewRunner returns a Runner that schedules simulations under ctx with
// opt. A nil ctx means context.Background().
func NewRunner(ctx context.Context, opt Options) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Runner{ctx: ctx, opt: opt}
}

// run submits one figure's jobs to the engine (label names its journal
// sweep) and applies the figure generators' all-or-nothing error policy:
// the first simulation failure cancels the remaining jobs and fails the
// figure.
func (r *Runner) run(label string, jobs []exp.Job) ([]exp.Result, error) {
	workers := r.opt.Workers
	if workers <= 0 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(r.ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		firstErr error
	)
	onProgress := func(p exp.Progress) {
		if p.Err != nil && !errors.Is(p.Err, context.Canceled) {
			mu.Lock()
			if firstErr == nil {
				firstErr = p.Err
			}
			mu.Unlock()
			cancel() // fail fast: no point finishing a doomed figure
		}
		if r.opt.OnProgress != nil {
			r.opt.OnProgress(p)
		}
	}
	eopt := exp.Options{
		Workers: workers, Timeout: r.opt.Timeout, OnProgress: onProgress,
		Retry: r.opt.Retry,
	}
	if r.opt.Journal != nil {
		eopt.Journal = &exp.JournalBinding{
			Log: r.opt.Journal, Label: label,
			Encode: encodeStats, Decode: decodeStats,
		}
	}
	res, err := exp.Run(ctx, jobs, eopt)
	mu.Lock()
	fe := firstErr
	mu.Unlock()
	if fe != nil {
		return nil, fe
	}
	if err != nil {
		return nil, err
	}
	// Every distinct simulation failure, not just the first: a figure
	// that fails on three workloads reports all three.
	if err := exp.Errors(res); err != nil {
		return nil, err
	}
	return res, nil
}

// diagJob builds one DiAG simulation job; its result value is diag.Stats.
func diagJob(w workloads.Workload, p workloads.Params, cfg diag.Config) exp.Job {
	return simJob(w, p, cfg.Name, func(img *mem.Image) (*diag.Machine, error) { return diag.NewMachine(cfg, img) })
}

// oooJob builds one baseline simulation job; its result value is ooo.Stats.
func oooJob(w workloads.Workload, p workloads.Params, cfg ooo.Config) exp.Job {
	return simJob(w, p, cfg.Name, func(img *mem.Image) (*ooo.Machine, error) { return ooo.NewMachine(cfg, img) })
}

// machine is the surface both timing machines share (internal/multi),
// plus their per-kind statistics S.
type machine[S any] interface {
	RunContext(ctx context.Context) error
	Mem() *mem.Memory
	Stats() S
}

// simJob builds one simulation job of w on the machine named name: it
// runs w on the machine build makes, checks its output, and returns the
// machine's statistics as the result value.
func simJob[S any, M machine[S]](w workloads.Workload, p workloads.Params, name string, build func(*mem.Image) (M, error)) exp.Job {
	return exp.Job{
		Name: w.Name + "/" + name,
		Run: func(ctx context.Context) (any, error) {
			var zero S
			img, err := w.Build(p)
			if err != nil {
				return zero, err
			}
			mach, err := build(img)
			if err == nil {
				err = mach.RunContext(ctx)
			}
			if err == nil {
				err = w.Check(mach.Mem(), p)
			}
			if err != nil {
				return zero, fmt.Errorf("%s on %s: %w", w.Name, name, err)
			}
			return mach.Stats(), nil
		},
	}
}

// ---- figure generators ----

// singleThread builds the Fig-9a/10a experiment: relative performance of
// the three FP DiAG configurations against one baseline core. Each
// workload contributes 1 + len(configs) jobs, laid out contiguously so
// results decode by fixed stride.
func (r *Runner) singleThread(id, title string, suite workloads.Suite, scale int) (*Figure, error) {
	configs := []diag.Config{diag.F4C2(), diag.F4C16(), diag.F4C32()}
	series := []string{"DiAG-32", "DiAG-256", "DiAG-512"}
	ws := workloads.BySuite(suite)
	var jobs []exp.Job
	for _, w := range ws {
		p := workloads.Params{Scale: scale, Threads: 1}
		jobs = append(jobs, oooJob(w, p, ooo.Baseline()))
		for _, cfg := range configs {
			jobs = append(jobs, diagJob(w, p, cfg))
		}
	}
	res, err := r.run(id, jobs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id, Title: title, Series: series}
	stride := 1 + len(configs)
	for wi, w := range ws {
		base := res[wi*stride].Value.(ooo.Stats)
		e := Entry{Workload: w.Name, Class: w.Class, Values: map[string]float64{}}
		for i := range configs {
			st := res[wi*stride+1+i].Value.(diag.Stats)
			e.Values[series[i]] = stats.Ratio(float64(base.Cycles), float64(st.Cycles))
		}
		fig.Entries = append(fig.Entries, e)
	}
	fig.computeMeans()
	return fig, nil
}

// multiThread builds the Fig-9b/10b experiment: the 16-by-2 DiAG machine
// (with and without SIMT pipelining) against the 12-core baseline.
func (r *Runner) multiThread(id, title string, suite workloads.Suite, scale int) (*Figure, error) {
	series := []string{"DiAG-512-16x2", "DiAG-512-16x2+SIMT"}
	diagCfg := diag.MultiRing(diag.F4C32(), MultiThreadRings, 2)
	baseCfg := ooo.BaselineMulticore(MultiThreadCores)
	ws := workloads.BySuite(suite)
	// Jobs per workload: baseline, plain DiAG, and (if SIMT-capable) the
	// pipelined form; slots records each workload's job indices.
	type slot struct{ base, plain, simt int }
	var (
		jobs  []exp.Job
		slots []slot
	)
	for _, w := range ws {
		s := slot{base: len(jobs), simt: -1}
		jobs = append(jobs, oooJob(w, workloads.Params{Scale: scale, Threads: MultiThreadCores}, baseCfg))
		s.plain = len(jobs)
		jobs = append(jobs, diagJob(w, workloads.Params{Scale: scale, Threads: MultiThreadRings}, diagCfg))
		if w.SIMTCapable {
			s.simt = len(jobs)
			jobs = append(jobs, diagJob(w, workloads.Params{Scale: scale, Threads: MultiThreadRings, SIMT: true}, diagCfg))
		}
		slots = append(slots, s)
	}
	res, err := r.run(id, jobs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{ID: id, Title: title, Series: series}
	for wi, w := range ws {
		s := slots[wi]
		base := res[s.base].Value.(ooo.Stats)
		e := Entry{Workload: w.Name, Class: w.Class, Values: map[string]float64{}}
		plain := res[s.plain].Value.(diag.Stats)
		e.Values[series[0]] = stats.Ratio(float64(base.Cycles), float64(plain.Cycles))
		if s.simt >= 0 {
			simt := res[s.simt].Value.(diag.Stats)
			e.Values[series[1]] = stats.Ratio(float64(base.Cycles), float64(simt.Cycles))
		}
		fig.Entries = append(fig.Entries, e)
	}
	fig.computeMeans()
	return fig, nil
}

// Fig9a regenerates Figure 9a: Rodinia single-thread performance.
func (r *Runner) Fig9a(scale int) (*Figure, error) {
	return r.singleThread("Fig 9a", "Rodinia single-thread relative performance vs 1 OoO core",
		workloads.Rodinia, scale)
}

// Fig9b regenerates Figure 9b: Rodinia multi-thread performance.
func (r *Runner) Fig9b(scale int) (*Figure, error) {
	return r.multiThread("Fig 9b", "Rodinia multi-thread relative performance vs 12-core OoO",
		workloads.Rodinia, scale)
}

// Fig10a regenerates Figure 10a: SPEC single-thread performance.
func (r *Runner) Fig10a(scale int) (*Figure, error) {
	return r.singleThread("Fig 10a", "SPEC CPU2017 single-thread relative performance vs 1 OoO core",
		workloads.SPEC, scale)
}

// Fig10b regenerates Figure 10b: SPEC multi-thread performance.
func (r *Runner) Fig10b(scale int) (*Figure, error) {
	return r.multiThread("Fig 10b", "SPEC CPU2017 multi-thread relative performance vs 12-core OoO",
		workloads.SPEC, scale)
}

// Fig11Benchmarks are the four Rodinia benchmarks of Figure 11.
var Fig11Benchmarks = []string{"hotspot", "kmeans", "bfs", "nw"}

// Fig11 regenerates Figure 11: energy breakdown (%) by component.
func (r *Runner) Fig11(scale int) (*Figure, error) {
	series := []string{"FP Unit", "Reg Lanes+ALU", "Memory", "Control"}
	fig := &Figure{ID: "Fig 11", Title: "DiAG energy breakdown (%) by hardware component (F4C32)", Series: series}
	cfg := diag.F4C32()
	var (
		jobs []exp.Job
		ws   []workloads.Workload
	)
	for _, name := range Fig11Benchmarks {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown Fig 11 benchmark %q", name)
		}
		ws = append(ws, w)
		jobs = append(jobs, diagJob(w, workloads.Params{Scale: scale, Threads: 1}, cfg))
	}
	res, err := r.run("Fig 11", jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		st := res[wi].Value.(diag.Stats)
		sh := power.DiAGEnergy(cfg, st).Share()
		fig.Entries = append(fig.Entries, Entry{
			Workload: w.Name, Class: w.Class,
			Values: map[string]float64{
				series[0]: 100 * sh[0], series[1]: 100 * sh[1],
				series[2]: 100 * sh[2], series[3]: 100 * sh[3],
			},
		})
	}
	fig.computeMeans()
	return fig, nil
}

// Fig12 regenerates Figure 12: Rodinia energy-efficiency improvement
// (inverse total energy vs the baseline) for single-thread, multi-thread,
// and multi-thread+SIMT execution.
func (r *Runner) Fig12(scale int) (*Figure, error) {
	series := []string{"single", "multi", "multi+SIMT"}
	fig := &Figure{ID: "Fig 12", Title: "Rodinia energy-efficiency improvement vs OoO baseline", Series: series}
	single := diag.F4C32()
	multi := diag.MultiRing(diag.F4C32(), MultiThreadRings, 2)
	base1 := ooo.Baseline()
	baseN := ooo.BaselineMulticore(MultiThreadCores)
	ws := workloads.BySuite(workloads.Rodinia)
	// Jobs per workload: 1-core baseline, single-thread DiAG, 12-core
	// baseline, multi-thread DiAG, and (if capable) the SIMT form.
	type slot struct{ b1, d1, bn, dm, ds int }
	var (
		jobs  []exp.Job
		slots []slot
	)
	for _, w := range ws {
		s := slot{ds: -1}
		s.b1 = len(jobs)
		jobs = append(jobs, oooJob(w, workloads.Params{Scale: scale, Threads: 1}, base1))
		s.d1 = len(jobs)
		jobs = append(jobs, diagJob(w, workloads.Params{Scale: scale, Threads: 1}, single))
		s.bn = len(jobs)
		jobs = append(jobs, oooJob(w, workloads.Params{Scale: scale, Threads: MultiThreadCores}, baseN))
		s.dm = len(jobs)
		jobs = append(jobs, diagJob(w, workloads.Params{Scale: scale, Threads: MultiThreadRings}, multi))
		if w.SIMTCapable {
			s.ds = len(jobs)
			jobs = append(jobs, diagJob(w, workloads.Params{Scale: scale, Threads: MultiThreadRings, SIMT: true}, multi))
		}
		slots = append(slots, s)
	}
	res, err := r.run("Fig 12", jobs)
	if err != nil {
		return nil, err
	}
	for wi, w := range ws {
		s := slots[wi]
		e := Entry{Workload: w.Name, Class: w.Class, Values: map[string]float64{}}
		b1 := res[s.b1].Value.(ooo.Stats)
		d1 := res[s.d1].Value.(diag.Stats)
		e.Values["single"] = power.Efficiency(
			power.DiAGEnergy(single, d1), power.OoOEnergy(base1, b1, single.FreqMHz))
		bn := res[s.bn].Value.(ooo.Stats)
		dm := res[s.dm].Value.(diag.Stats)
		e.Values["multi"] = power.Efficiency(
			power.DiAGEnergy(multi, dm), power.OoOEnergy(baseN, bn, multi.FreqMHz))
		if s.ds >= 0 {
			ds := res[s.ds].Value.(diag.Stats)
			e.Values["multi+SIMT"] = power.Efficiency(
				power.DiAGEnergy(multi, ds), power.OoOEnergy(baseN, bn, multi.FreqMHz))
		}
		fig.Entries = append(fig.Entries, e)
	}
	fig.computeMeans()
	return fig, nil
}

// StallBreakdown regenerates the §7.3.2 statistic: shares of stall
// sources averaged across the Rodinia benchmarks on F4C32 (paper: 73.6%
// memory, 21.1% control, 5.3% other).
func (r *Runner) StallBreakdown(scale int) (*Figure, error) {
	series := []string{"memory %", "control %", "other %"}
	fig := &Figure{ID: "§7.3.2", Title: "DiAG stall-source breakdown (F4C32, Rodinia)", Series: series}
	cfg := diag.F4C32()
	ws := workloads.BySuite(workloads.Rodinia)
	var jobs []exp.Job
	for _, w := range ws {
		jobs = append(jobs, diagJob(w, workloads.Params{Scale: scale, Threads: 1}, cfg))
	}
	res, err := r.run("§7.3.2", jobs)
	if err != nil {
		return nil, err
	}
	var agg diag.Stats
	for wi, w := range ws {
		st := res[wi].Value.(diag.Stats)
		fig.Entries = append(fig.Entries, Entry{
			Workload: w.Name, Class: w.Class,
			Values: map[string]float64{
				series[0]: 100 * st.StallShare(diag.StallMemory),
				series[1]: 100 * st.StallShare(diag.StallControl),
				series[2]: 100 * st.StallShare(diag.StallOther),
			},
		})
		agg.Merge(st)
	}
	fig.Entries = append(fig.Entries, Entry{
		Workload: "AVERAGE", Class: "",
		Values: map[string]float64{
			series[0]: 100 * agg.StallShare(diag.StallMemory),
			series[1]: 100 * agg.StallShare(diag.StallControl),
			series[2]: 100 * agg.StallShare(diag.StallOther),
		},
	})
	fig.computeMeans()
	return fig, nil
}

// ScalingSweep measures one workload across machines of growing cluster
// count (32..512 PEs and beyond if asked), supporting the paper's
// §7.2.1 observation that serial performance saturates past 256 PEs
// "much like large ROB sizes". Relative performance is against the
// single-core baseline.
func (r *Runner) ScalingSweep(name string, clusterCounts []int, scale int) (*Figure, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
	p := workloads.Params{Scale: scale, Threads: 1}
	jobs := []exp.Job{oooJob(w, p, ooo.Baseline())}
	var cfgs []diag.Config
	for _, n := range clusterCounts {
		cfg := diag.F4C32()
		cfg.Clusters = n
		cfg.Name = fmt.Sprintf("C%d", n)
		cfgs = append(cfgs, cfg)
		jobs = append(jobs, diagJob(w, p, cfg))
	}
	res, err := r.run("sweep", jobs)
	if err != nil {
		return nil, err
	}
	base := res[0].Value.(ooo.Stats)
	fig := &Figure{
		ID:     "sweep",
		Title:  fmt.Sprintf("%s: relative performance vs cluster count (PE scaling)", name),
		Series: []string{"rel. perf", "IPC", "reuse hits", "lines fetched"},
	}
	for i, cfg := range cfgs {
		st := res[1+i].Value.(diag.Stats)
		fig.Entries = append(fig.Entries, Entry{
			Workload: fmt.Sprintf("%d clusters (%d PEs)", cfg.Clusters, cfg.TotalPEs()),
			Class:    w.Class,
			Values: map[string]float64{
				"rel. perf":     stats.Ratio(float64(base.Cycles), float64(st.Cycles)),
				"IPC":           st.IPC(),
				"reuse hits":    float64(st.ReuseHits),
				"lines fetched": float64(st.LinesFetched),
			},
		})
	}
	fig.computeMeans()
	return fig, nil
}

// ---- tables ----

// Table1 renders the paper's Table 1: how each pipeline stage/structure
// is realized on the baseline and on DiAG before and during reuse (§5.3).
func Table1() *stats.Table {
	t := stats.NewTable("Table 1: Comparison with out-of-order processor",
		"Stages and Structures", "Out-of-Order Processor", "DiAG (Initial)", "DiAG (Reuse)")
	rows := [][4]string{
		{"Fetch", "Yes", "Yes (Batch)", "No"},
		{"Decode", "Yes", "Yes", "No"},
		{"Issue", "Yes", "No", "No"},
		{"Issue Width", "4-8 Instr.", "Scalable", "Scalable"},
		{"Rename", "Yes", "No", "No"},
		{"Register File", "Physical RF", "Reg Lanes", "Reg Lanes"},
		{"Dispatch", "Yes", "No", "No"},
		{"Execute", "Yes", "Yes", "Yes"},
		{"Commit", "Reorder Buffer", "Reg Lanes", "Reg Lanes"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2], r[3])
	}
	return t
}

// Table2 renders the paper's Table 2: the evaluated configurations.
func Table2() *stats.Table {
	t := stats.NewTable("Table 2: DiAG configurations used for evaluation",
		"Configuration", "ISA", "PEs/Cluster", "Clusters", "Total PEs", "Freq (MHz)", "L1I", "L1D", "L2")
	for _, cfg := range diag.Table2Configs() {
		l2 := "N/A"
		if cfg.L2Size > 0 {
			l2 = fmt.Sprintf("%dMB", cfg.L2Size>>20)
		}
		t.AddRow(cfg.Name, cfg.ISA.String(),
			fmt.Sprint(cfg.PEsPerCluster), fmt.Sprint(cfg.Clusters),
			fmt.Sprint(cfg.TotalPEs()), fmt.Sprint(cfg.FreqMHz),
			fmt.Sprintf("%dKB", cfg.L1ISize>>10), fmt.Sprintf("%dKB", cfg.L1DSize>>10), l2)
	}
	return t
}

// Table3 renders the paper's Table 3 via the area/power model.
func Table3() *stats.Table {
	return power.DiAGArea(diag.F4C32()).Table()
}

// CSV renders the figure as comma-separated values (one header row,
// one row per benchmark, means last) for downstream plotting.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("benchmark,class")
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(s)
	}
	b.WriteString("\n")
	row := func(name, class string, vals map[string]float64) {
		b.WriteString(name)
		b.WriteString(",")
		b.WriteString(class)
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%.4f", vals[s])
		}
		b.WriteString("\n")
	}
	for _, e := range f.Entries {
		row(e.Workload, e.Class, e.Values)
	}
	row("geomean", "", f.Means)
	return b.String()
}

// Describe returns the workload inventory as a table.
func Describe() *stats.Table {
	t := stats.NewTable("Benchmark kernels",
		"name", "suite", "class", "FP", "parallel loop SIMT-capable")
	for _, w := range workloads.All() {
		t.AddRow(w.Name, w.Suite.String(), w.Class,
			fmt.Sprint(w.FP), fmt.Sprint(w.SIMTCapable))
	}
	return t
}
