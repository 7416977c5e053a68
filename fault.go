package diag

import (
	"context"
	"time"

	"diag/internal/fault"
)

// ---- Fault injection & resilience ----
//
// FaultCampaign quantifies the architecture's fault behaviour: it runs
// a program many times, each run perturbed by one deterministic,
// seed-derived fault (a bit-flip or stuck-at at a named hardware
// site), and classifies every run against the golden ISS into the
// standard taxonomy — masked, SDC, detected, crash, hang. Campaigns
// replay exactly from their seed regardless of worker count.
//
//	rep, err := diag.FaultCampaign(ctx, diag.DiAG(diag.F4C16()), img,
//	    diag.WithFaultTrials(1000), diag.WithFaultSeed(42))
//	fmt.Println(rep.Table())

// FaultSite is a category of fault-injection site (register lanes,
// instruction buffers, PE enables, memory words, ROB/IQ entries).
type FaultSite = fault.Class

// Fault-site classes. DiAG machines support Lane, FLane, PC, IBuf,
// Enable, and Mem; the OoO baseline supports Lane, FLane, PC, Mem,
// ROB, and IQ.
const (
	FaultSiteLane   = fault.SiteLane
	FaultSiteFLane  = fault.SiteFLane
	FaultSitePC     = fault.SitePC
	FaultSiteIBuf   = fault.SiteIBuf
	FaultSiteEnable = fault.SiteEnable
	FaultSiteMem    = fault.SiteMem
	FaultSiteROB    = fault.SiteROB
	FaultSiteIQ     = fault.SiteIQ
)

// FaultOutcome classifies one faulted run against the golden model.
type FaultOutcome = fault.Outcome

// The fault-injection outcome taxonomy.
const (
	FaultMasked   = fault.Masked
	FaultSDC      = fault.SDC
	FaultDetected = fault.Detected
	FaultCrash    = fault.Crash
	FaultHang     = fault.Hang
)

// FaultTrial is one classified faulted run of a campaign.
type FaultTrial = fault.Trial

// FaultReport aggregates a campaign; Table renders the AVF-style
// vulnerability table per site class.
type FaultReport = fault.Report

// ParseFaultSites parses a comma-separated site list ("lane,mem,ibuf";
// aliases reg/freg/cache/all accepted).
func ParseFaultSites(s string) ([]FaultSite, error) { return fault.ParseClasses(s) }

// FaultOption customizes a fault campaign.
type FaultOption func(*fault.Campaign)

// WithFaultTrials sets the number of faulted runs (default 100).
func WithFaultTrials(n int) FaultOption {
	return func(c *fault.Campaign) { c.Trials = n }
}

// WithFaultSeed sets the campaign seed; every fault derives from it,
// so equal seeds replay the identical campaign.
func WithFaultSeed(seed int64) FaultOption {
	return func(c *fault.Campaign) { c.Seed = seed }
}

// WithFaultSites restricts injection to the given site classes
// (default: every class the machine physically has).
func WithFaultSites(sites ...FaultSite) FaultOption {
	return func(c *fault.Campaign) { c.Sites = sites }
}

// WithFaultWorkers bounds the parallel trial runners (default
// GOMAXPROCS). The report is identical for any worker count.
func WithFaultWorkers(n int) FaultOption {
	return func(c *fault.Campaign) { c.Workers = n }
}

// WithFaultTimeout bounds each trial's wall-clock time; an expired
// trial classifies as a hang.
func WithFaultTimeout(d time.Duration) FaultOption {
	return func(c *fault.Campaign) { c.Timeout = d }
}

// WithFaultWarmup runs the unfaulted machine once to n retired
// instructions, checkpoints it, and forks every eligible trial from the
// shared snapshot instead of re-simulating the warmup region from
// reset. A trial is eligible only when its fault cannot have fired
// inside the warmup window; ineligible trials run from reset as
// before. Determinism makes the fork exact, so the report is
// byte-identical to a campaign without warmup at any worker count —
// warmup only changes how fast the campaign finishes.
func WithFaultWarmup(n uint64) FaultOption {
	return func(c *fault.Campaign) { c.Warmup = n }
}

// FaultCampaign runs a Monte Carlo fault-injection campaign of p on
// t's machine. t must be a single-ring DiAG or single-core OoO target
// (fault campaigns perturb one hart); an ISS target errors, as it has
// no hardware to perturb. The error covers campaign-level failures
// only — per-trial failures are the measurement and land in the
// report.
func FaultCampaign(ctx context.Context, t Target, p *Program, opts ...FaultOption) (*FaultReport, error) {
	c, err := newCampaign(t, p, opts)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx)
}

// FaultReplay re-runs one trial of a finished campaign with a
// cycle-level observer attached, so a surprising outcome — an SDC, a
// hang — can be examined event by event (typically by exporting an
// EventCollector's Chrome trace to Perfetto). t, p, and the options
// must match the campaign that produced rep; the replayed trial's
// fault, budgets, and classification are then identical to
// rep.Trials[trial].
func FaultReplay(ctx context.Context, t Target, p *Program, rep *FaultReport, trial int, obs Observer, opts ...FaultOption) (FaultTrial, error) {
	c, err := newCampaign(t, p, opts)
	if err != nil {
		return FaultTrial{}, err
	}
	return c.Replay(ctx, rep, trial, obs)
}

// newCampaign configures a campaign of p on t's machine.
func newCampaign(t Target, p *Program, opts []FaultOption) (*fault.Campaign, error) {
	c := &fault.Campaign{Image: p}
	if err := t.campaign(c); err != nil {
		return nil, err
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// DegradePoint is one entry of a degraded-mode slowdown curve.
type DegradePoint = fault.DegradePoint

// DegradationSweep runs p on DiAG machines with 0, 1, …, maxDisabled
// clusters fused off (clamped so at least 2 survive), verifies each
// run's output against the golden ISS, and returns the slowdown curve
// — the quantitative form of the paper's redundancy argument (§5.1.4).
func DegradationSweep(ctx context.Context, cfg Config, p *Program, maxDisabled, workers int) ([]DegradePoint, error) {
	return fault.Degradation(ctx, cfg, p, maxDisabled, workers)
}

// DegradationTable renders a degradation curve as a fixed-width table.
func DegradationTable(name string, points []DegradePoint) string {
	return fault.DegradationTable(name, points)
}
