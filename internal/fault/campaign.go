package fault

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"diag/internal/diag"
	"diag/internal/diagerr"
	"diag/internal/exp"
	"diag/internal/iss"
	"diag/internal/journal"
	"diag/internal/mem"
	"diag/internal/obsv"
	"diag/internal/ooo"
	"diag/internal/snap"
	"diag/internal/stats"
)

// Outcome classifies one faulted run against the golden model.
type Outcome int

// The standard fault-injection taxonomy.
const (
	// Masked: the run completed and the final memory image matches the
	// golden model — the fault hit dead state or was overwritten.
	// (Registers the program never reads again may still differ; like
	// ACE analysis, only the program's output counts.)
	Masked Outcome = iota
	// SDC: silent data corruption — the run completed normally but the
	// final memory differs from the golden model.
	SDC
	// Detected: the hardware trapped precisely — the run failed with a
	// program-level fault (undecodable instruction, misaligned access)
	// while the PC was still inside the text image.
	Detected
	// Crash: execution escaped — the PC left the text image (wild
	// jump, bus error) or the simulator itself panicked.
	Crash
	// Hang: the run never completed — the retirement watchdog proved a
	// livelock (ErrStalled) or a cycle/instruction/wall-clock budget
	// expired.
	Hang

	numOutcomes
)

var outcomeNames = [numOutcomes]string{"masked", "SDC", "detected", "crash", "hang"}

func (o Outcome) String() string {
	if o < 0 || o >= numOutcomes {
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
	return outcomeNames[o]
}

// Campaign is one Monte Carlo fault-injection experiment: Trials
// single-fault runs of Image on exactly one machine model, each
// perturbed by a fault derived deterministically from Seed, classified
// against the golden ISS by final architectural state and memory
// digest. The experiment fans out over internal/exp, whose ordered
// results (and the per-trial RNGs) make the report independent of
// Workers.
type Campaign struct {
	Image *mem.Image

	// Exactly one of DiAG / OoO selects the machine under test. The
	// configuration must be single-threaded (Rings/Cores == 1): a
	// fault campaign perturbs one hart.
	DiAG *diag.Config
	OoO  *ooo.Config

	Sites  []Class // nil = DefaultSites for the machine
	Trials int     // number of faulted runs (default 100)
	Seed   int64   // base of every per-trial RNG

	Workers int           // parallel trial runners (<=0: GOMAXPROCS)
	Timeout time.Duration // optional per-trial wall-clock bound (counts as hang)

	// Warmup, when > 0, runs the unfaulted machine once to that many
	// retired instructions, checkpoints it (internal/snap), and forks
	// every eligible trial from the shared snapshot instead of
	// re-simulating the warmup region. A trial is eligible only when its
	// fault cannot have fired during the warmup window (Fault.Cycle
	// strictly past every cycle the warmup polled); ineligible trials
	// run from reset as before. Determinism makes the fork exact, so
	// the report is byte-identical to Warmup == 0 at any worker count.
	Warmup uint64

	// DataAddr/DataLen bound SiteMem faults; zero means derive from
	// the image's data segments (falling back to a page past text).
	DataAddr, DataLen uint32

	// Journal, when non-nil, makes the campaign durable: every trial's
	// classified outcome is recorded as it completes, and a campaign
	// resumed on this journal replays recorded trials instead of
	// re-simulating them. Determinism makes the resumed report
	// byte-identical to an uninterrupted run. The deterministic preamble
	// (golden run, unfaulted baseline, warmup checkpoint) always re-runs.
	Journal *journal.Journal

	// Retry re-attempts transient trial failures — host-induced
	// wall-clock timeouts and panic-recovered simulator bugs — with
	// deterministic backoff (Seed defaults to the campaign seed).
	// Deterministic outcomes are never retried.
	Retry exp.Retry
}

// DefaultSites returns the site classes that physically exist on the
// machine: diag true selects the DiAG ring sites, false the OoO sites.
func DefaultSites(diagMachine bool) []Class {
	if diagMachine {
		return []Class{SiteLane, SiteFLane, SitePC, SiteIBuf, SiteEnable, SiteMem}
	}
	return []Class{SiteLane, SiteFLane, SitePC, SiteMem, SiteROB, SiteIQ}
}

// Trial is one classified faulted run.
type Trial struct {
	Fault    Fault
	Outcome  Outcome
	Injected bool  // false: the scheduled cycle was never reached
	Cycles   int64 // simulated cycles (0 when the run failed)
	Err      string
}

// Report aggregates a campaign.
type Report struct {
	Machine        string
	Workload       string // optional label for the table title
	Seed           int64
	GoldenInstret  uint64
	BaselineCycles int64
	Trials         []Trial
}

// goldenRef is what classification compares against.
type goldenRef struct {
	digest            uint64
	textAddr, textEnd uint32
}

// runResult is one faulted run's observable outcome.
type runResult struct {
	digest   uint64
	pc       uint32
	cycles   int64
	injected bool
	err      error
}

// seedStride separates per-trial RNG streams (32-bit golden ratio).
const seedStride = 0x9E3779B9

// TrialSeed returns trial i's RNG seed (base + i·seedStride) — the
// handle for reproducing one trial in isolation, e.g. from a resume
// banner's wedged-trial hint.
func TrialSeed(base int64, i int) int64 { return base + int64(i)*seedStride }

// Manifest is the campaign's identity for the run journal: everything
// that determines the trial outcomes (machine configuration, fault
// sites, budgets, image, seed). Resuming a journal recorded under a
// different manifest is refused, so a resumed report can never silently
// mix two experiments. Worker count is deliberately excluded — results
// are byte-identical at any parallelism, so a resume may change it.
func (c *Campaign) Manifest(tool string) journal.Manifest {
	trials := c.Trials
	if trials <= 0 {
		trials = 100
	}
	sites := c.Sites
	if len(sites) == 0 {
		sites = DefaultSites(c.DiAG != nil)
	}
	cfg := struct {
		DiAG              *diag.Config
		OoO               *ooo.Config
		Sites             []Class
		Warmup            uint64
		Timeout           time.Duration
		DataAddr, DataLen uint32
	}{c.DiAG, c.OoO, sites, c.Warmup, c.Timeout, c.DataAddr, c.DataLen}
	return journal.Manifest{
		Tool:          tool,
		Seed:          c.Seed,
		Jobs:          trials,
		ConfigDigest:  journal.DigestJSON(cfg),
		ProgramDigest: journal.DigestJSON(c.Image),
		Note:          c.machineName(),
	}
}

// Run executes the campaign. The error return covers campaign-level
// failures only (bad configuration, a golden run that does not halt
// cleanly, cancellation); per-trial failures are what the campaign
// measures and land in the report.
func (c *Campaign) Run(ctx context.Context) (*Report, error) {
	if err := c.validate("campaign", "an image"); err != nil {
		return nil, err
	}
	trials := c.Trials
	if trials <= 0 {
		trials = 100
	}
	sites := c.Sites
	if len(sites) == 0 {
		sites = DefaultSites(c.DiAG != nil)
	}
	dataAddr, dataLen := c.dataRegion()
	golden, goldenInstret, err := c.golden()
	if err != nil {
		return nil, err
	}

	// Unfaulted timing run: differential sanity check plus the cycle
	// window faults are scheduled in and the degraded-mode baseline.
	base := c.forkRunner(nil, nil, dataAddr, dataLen, 0, 0, nil)
	baseRes := base(ctx)
	if baseRes.err != nil {
		return nil, fmt.Errorf("fault: unfaulted run failed: %w", baseRes.err)
	}
	if baseRes.digest != golden.digest {
		return nil, fmt.Errorf("fault: unfaulted run diverges from the golden model — fix the machine before injecting faults")
	}

	// Faulted runs get headroom over the fault-free budgets so only a
	// genuine runaway (e.g. a corrupted loop bound) counts as a hang.
	// The margins are fixed functions of the deterministic fault-free
	// run, keeping every trial's budget reproducible.
	maxInst := goldenInstret*4 + 10_000
	maxCycles := baseRes.cycles*8 + 100_000

	faults := make([][]Fault, trials)
	for i := range faults {
		rng := rand.New(rand.NewSource(TrialSeed(c.Seed, i)))
		faults[i] = []Fault{Random(rng, sites, baseRes.cycles)}
	}

	// With a warmup window, trials whose fault lands strictly past it
	// fork from one shared post-warmup checkpoint instead of
	// re-simulating the warmup region from reset.
	var fork *forkPoint
	if c.Warmup > 0 {
		fork, err = c.checkpoint(ctx, maxInst, maxCycles)
		if err != nil {
			return nil, fmt.Errorf("fault: warmup checkpoint: %w", err)
		}
	}

	jobs := make([]exp.Job, trials)
	for i := range jobs {
		run := c.forkRunner(fork, faults[i], dataAddr, dataLen, maxInst, maxCycles, nil)
		jobs[i] = exp.Job{
			Name: fmt.Sprintf("trial-%d", i),
			Run: func(ctx context.Context) (any, error) {
				res := run(ctx)
				out, msg := classify(res, golden)
				return Trial{
					Fault:    faults[i][0],
					Outcome:  out,
					Injected: res.injected,
					Cycles:   res.cycles,
					Err:      msg,
				}, nil
			},
		}
	}
	retry := c.Retry
	if retry.Seed == 0 {
		retry.Seed = c.Seed
	}
	opt := exp.Options{Workers: c.Workers, Timeout: c.Timeout, Retry: retry}
	if c.Journal != nil {
		opt.Journal = &exp.JournalBinding{
			Log:    c.Journal,
			Label:  "trials",
			Encode: func(v any) ([]byte, error) { return json.Marshal(v) },
			Decode: func(b []byte) (any, error) {
				var t Trial
				if err := json.Unmarshal(b, &t); err != nil {
					return nil, err
				}
				return t, nil
			},
		}
	}
	results, err := exp.Run(ctx, jobs, opt)
	if err != nil {
		// Surface every distinct trial failure alongside the run error;
		// errors.Is(err, context.Canceled) still matches for the CLI's
		// interruption banner.
		return nil, errors.Join(err, exp.Errors(results))
	}

	rep := &Report{
		Machine:        c.machineName(),
		Seed:           c.Seed,
		GoldenInstret:  goldenInstret,
		BaselineCycles: baseRes.cycles,
		Trials:         make([]Trial, trials),
	}
	for i, r := range results {
		if r.Err != nil {
			// The trial itself never errors; exp-level failures are a
			// panicking simulator (crash) or the per-trial wall-clock
			// budget (hang).
			out := Crash
			if errors.Is(r.Err, diagerr.ErrTimeout) {
				out = Hang
			}
			rep.Trials[i] = Trial{Fault: faults[i][0], Outcome: out, Injected: true, Err: out.String()}
			continue
		}
		rep.Trials[i] = r.Value.(Trial)
	}
	return rep, nil
}

// validate checks the campaign's shape; op and image name the caller
// in error text.
func (c *Campaign) validate(op, image string) error {
	switch {
	case c.Image == nil:
		return fmt.Errorf("fault: %s needs %s", op, image)
	case (c.DiAG == nil) == (c.OoO == nil):
		return fmt.Errorf("fault: %s needs exactly one of DiAG/OoO", op)
	case c.DiAG != nil && c.DiAG.Rings > 1 || c.OoO != nil && c.OoO.Cores > 1:
		return fmt.Errorf("fault: campaign machines must be single-threaded (Rings/Cores == 1)")
	}
	return nil
}

// golden runs the ISS reference the machine must reproduce, under the
// configuration's instruction cap.
func (c *Campaign) golden() (goldenRef, uint64, error) {
	cap := uint64(500_000_000)
	if c.DiAG != nil && c.DiAG.MaxInstructions > 0 {
		cap = c.DiAG.MaxInstructions
	}
	if c.OoO != nil && c.OoO.MaxInstructions > 0 {
		cap = c.OoO.MaxInstructions
	}
	g, instret, err := goldenRun(c.Image, cap)
	if err != nil {
		return goldenRef{}, 0, fmt.Errorf("fault: golden run: %w", err)
	}
	return g, instret, nil
}

// dataRegion resolves the SiteMem target range.
func (c *Campaign) dataRegion() (addr, length uint32) {
	if c.DataLen > 0 {
		return c.DataAddr, c.DataLen
	}
	lo, hi := uint32(0), uint32(0)
	for _, s := range c.Image.Segments {
		if len(s.Data) == 0 {
			continue
		}
		end := s.Addr + uint32(len(s.Data))
		if hi == 0 || s.Addr < lo {
			lo = s.Addr
		}
		if end > hi {
			hi = end
		}
	}
	if hi > lo {
		return lo, hi - lo
	}
	// No initialized data: target the page past text (scratch space).
	return c.Image.TextEnd(), 4096
}

func (c *Campaign) machineName() string {
	if c.DiAG != nil {
		if c.DiAG.Name != "" {
			return c.DiAG.Name
		}
		return "diag"
	}
	if c.OoO.Name != "" {
		return c.OoO.Name
	}
	return "ooo"
}

// Replay re-runs one trial of a finished campaign with an observer
// attached, so a surprising outcome (an SDC, a hang) can be examined
// cycle by cycle — typically with an obsv.Collector whose Chrome trace
// is then opened in Perfetto. rep must come from Run on this campaign
// (same image, machine, and seed); the replayed fault is the one the
// report recorded, and the run uses the same reproducible budgets, so
// the returned Trial matches rep.Trials[trial].
func (c *Campaign) Replay(ctx context.Context, rep *Report, trial int, obs obsv.Observer) (Trial, error) {
	if err := c.validate("replay", "the campaign's image"); err != nil {
		return Trial{}, err
	}
	if trial < 0 || trial >= len(rep.Trials) {
		return Trial{}, fmt.Errorf("fault: trial %d out of range (report has %d)", trial, len(rep.Trials))
	}
	dataAddr, dataLen := c.dataRegion()
	golden, _, err := c.golden()
	if err != nil {
		return Trial{}, err
	}

	// The same reproducible budgets Run derived.
	maxInst := rep.GoldenInstret*4 + 10_000
	maxCycles := rep.BaselineCycles*8 + 100_000
	// Replay always runs from reset (no warmup fork) so the observer
	// sees the complete event stream; determinism makes the resulting
	// Trial identical either way.
	f := rep.Trials[trial].Fault
	res := c.forkRunner(nil, []Fault{f}, dataAddr, dataLen, maxInst, maxCycles, obs)(ctx)
	out, msg := classify(res, golden)
	return Trial{Fault: f, Outcome: out, Injected: res.injected, Cycles: res.cycles, Err: msg}, nil
}

// forkPoint is a shared post-warmup checkpoint: the in-memory snapshot
// (each trial restores its own private machine from it; restoring never
// mutates or aliases the state, so one snapshot seeds every fork) and
// the fork threshold.
type forkPoint struct {
	snap *snap.Snapshot
	// threshold is the machine's clock at the pause. Warmup polled the
	// injection hook only at cycles <= threshold, so a fault strictly
	// past it fires at the identical step whether the trial ran from
	// reset or from the checkpoint.
	threshold int64
}

// eligible reports whether a single-fault trial can fork from the
// checkpoint without moving its injection point.
func (fp *forkPoint) eligible(faults []Fault) bool {
	return fp != nil && len(faults) == 1 && faults[0].Cycle > fp.threshold
}

// machine is the engine surface (internal/multi) both timing models
// share.
type machine interface {
	RunUntil(ctx context.Context, limit uint64) (paused bool, err error)
	RunContext(ctx context.Context) error
	SetObserver(o obsv.Observer)
	SetBudgets(maxInst uint64, maxCycles int64)
	Mem() *mem.Memory
}

// rig is one campaign machine reduced to what a trial drives: the
// shared machine surface, unit 0 — the one hart faults are injected
// into — and the per-kind cycle and snapshot views.
type rig struct {
	machine
	target   Target           // unit 0's CPU; on DiAG also its cluster fuses
	preStep  *func(now int64) // unit 0's PreStep slot
	cycles   func() int64
	snapshot func() *snap.Snapshot
}

// build makes the campaign's machine from reset, or from the
// checkpoint s when non-nil, under the given budgets (0 keeps the
// configuration's own). The machine kind is the only per-kind step of
// a campaign.
func (c *Campaign) build(s *snap.Snapshot, maxInst uint64, maxCycles int64) (*rig, error) {
	var rg *rig
	if c.DiAG != nil {
		var m *diag.Machine
		var err error
		if s != nil {
			m, err = diag.NewMachineFromState(s.DiAG)
		} else {
			m, err = diag.NewMachine(*c.DiAG, c.Image)
		}
		if err != nil {
			return nil, err
		}
		r := m.Ring(0)
		rg = &rig{
			machine: m, preStep: &r.PreStep,
			target:   Target{CPU: r.CPU(), DisableCluster: r.DisableCluster, Clusters: c.DiAG.Clusters},
			cycles:   func() int64 { return m.Stats().Cycles },
			snapshot: func() *snap.Snapshot { return &snap.Snapshot{Kind: snap.KindDiAG, DiAG: m.State()} },
		}
	} else {
		var m *ooo.Machine
		var err error
		if s != nil {
			m, err = ooo.NewMachineFromState(s.OoO)
		} else {
			m, err = ooo.NewMachine(*c.OoO, c.Image)
		}
		if err != nil {
			return nil, err
		}
		core := m.Core(0)
		rg = &rig{
			machine: m, preStep: &core.PreStep,
			target:   Target{CPU: core.CPU()},
			cycles:   func() int64 { return m.Stats().Cycles },
			snapshot: func() *snap.Snapshot { return &snap.Snapshot{Kind: snap.KindOoO, OoO: m.State()} },
		}
	}
	rg.SetBudgets(maxInst, maxCycles)
	return rg, nil
}

// checkpoint runs the unfaulted machine (under the trial budgets) to
// the warmup pause and captures it. A nil forkPoint (no error) means the
// program halted inside the warmup window — nothing to fork, every
// trial runs from reset.
func (c *Campaign) checkpoint(ctx context.Context, maxInst uint64, maxCycles int64) (*forkPoint, error) {
	rg, err := c.build(nil, maxInst, maxCycles)
	if err != nil {
		return nil, err
	}
	paused, err := rg.RunUntil(ctx, c.Warmup)
	if err != nil || !paused {
		return nil, err
	}
	return &forkPoint{snap: rg.snapshot(), threshold: rg.cycles()}, nil
}

// forkRunner builds a closure running one (possibly faulted)
// simulation, forking from the shared checkpoint when the trial is
// eligible. Budgets of 0 keep the configuration's own values (unfaulted
// run). A non-nil obs streams the run's cycle-level events (replay
// debugging).
func (c *Campaign) forkRunner(fork *forkPoint, faults []Fault, dataAddr, dataLen uint32, maxInst uint64, maxCycles int64, obs obsv.Observer) func(context.Context) runResult {
	var from *snap.Snapshot
	if fork.eligible(faults) {
		from = fork.snap
	}
	return func(ctx context.Context) runResult {
		rg, err := c.build(from, maxInst, maxCycles)
		if err != nil {
			return runResult{err: err}
		}
		if obs != nil {
			rg.SetObserver(obs)
		}
		t := rg.target
		t.TextAddr, t.TextLen = c.Image.TextAddr, uint32(len(c.Image.Text))*4
		t.DataAddr, t.DataLen = dataAddr, dataLen
		inj := NewInjector(t, faults)
		*rg.preStep = inj.Poll
		err = rg.RunContext(ctx)
		return runResult{
			digest:   rg.Mem().Digest(),
			pc:       t.CPU.PC,
			cycles:   rg.cycles(),
			injected: inj.Injected > 0,
			err:      err,
		}
	}
}

// goldenRun executes the image on the ISS to completion.
func goldenRun(img *mem.Image, cap uint64) (goldenRef, uint64, error) {
	m := mem.New()
	entry, err := img.Load(m)
	if err != nil {
		return goldenRef{}, 0, err
	}
	cpu := iss.New(m, entry)
	cpu.Boot(0, 1) // the single hart a campaign's machine runs
	cpu.Run(cap)
	if cpu.Err != nil {
		return goldenRef{}, 0, cpu.Err
	}
	if !cpu.Halted {
		return goldenRef{}, 0, diagerr.Wrap(diagerr.ErrMaxInstructions,
			"fault: golden run hit the %d-instruction cap before halting", cap)
	}
	return goldenRef{
		digest:   m.Digest(),
		textAddr: img.TextAddr,
		textEnd:  img.TextEnd(),
	}, cpu.Instret, nil
}

// classify maps one faulted run's outcome into the taxonomy.
func classify(res runResult, golden goldenRef) (Outcome, string) {
	if res.err == nil {
		if res.digest == golden.digest {
			return Masked, ""
		}
		return SDC, ""
	}
	msg := res.err.Error()
	switch {
	case errors.Is(res.err, diagerr.ErrStalled),
		errors.Is(res.err, diagerr.ErrMaxCycles),
		errors.Is(res.err, diagerr.ErrMaxInstructions),
		errors.Is(res.err, diagerr.ErrTimeout):
		return Hang, msg
	case errors.Is(res.err, diagerr.ErrBadProgram):
		if res.pc >= golden.textAddr && res.pc < golden.textEnd {
			// Precise trap with control still inside the program: the
			// hardware detected the fault.
			return Detected, msg
		}
		return Crash, msg
	}
	return Crash, msg
}

// Counts tallies trials per (site class, outcome).
func (r *Report) Counts() [numClasses][numOutcomes]int {
	var n [numClasses][numOutcomes]int
	for _, t := range r.Trials {
		if t.Fault.Class >= 0 && t.Fault.Class < numClasses && t.Outcome >= 0 && t.Outcome < numOutcomes {
			n[t.Fault.Class][t.Outcome]++
		}
	}
	return n
}

// AVF returns the architectural vulnerability factor of a site class:
// the fraction of its faults with any visible effect (1 − masked
// share). Returns 0 for a class with no trials.
func (r *Report) AVF(c Class) float64 {
	counts := r.Counts()
	total := 0
	for _, n := range counts[c] {
		total += n
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(counts[c][Masked])/float64(total)
}

// Table renders the AVF-style vulnerability table: one row per site
// class with a trial-count breakdown by outcome, plus a total row. The
// output is a pure function of the trial list, so a fixed-seed
// campaign renders byte-identically regardless of worker count.
func (r *Report) Table() string {
	title := fmt.Sprintf("Fault campaign: %s, %d trials, seed %d", r.Machine, len(r.Trials), r.Seed)
	if r.Workload != "" {
		title = fmt.Sprintf("Fault campaign: %s on %s, %d trials, seed %d",
			r.Workload, r.Machine, len(r.Trials), r.Seed)
	}
	tab := stats.NewTable(title, "site", "trials", "masked", "SDC", "detected", "crash", "hang", "AVF")
	counts := r.Counts()
	var total [numOutcomes]int
	grand := 0
	for c := Class(0); c < numClasses; c++ {
		n := 0
		for _, v := range counts[c] {
			n += v
		}
		if n == 0 {
			continue
		}
		grand += n
		for o := Outcome(0); o < numOutcomes; o++ {
			total[o] += counts[c][o]
		}
		tab.AddRowf(c.String(), n,
			counts[c][Masked], counts[c][SDC], counts[c][Detected],
			counts[c][Crash], counts[c][Hang], r.AVF(c))
	}
	avf := 0.0
	if grand > 0 {
		avf = 1 - float64(total[Masked])/float64(grand)
	}
	tab.AddRowf("TOTAL", grand,
		total[Masked], total[SDC], total[Detected], total[Crash], total[Hang], avf)
	return tab.String()
}
