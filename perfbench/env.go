package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// setupEnv is a set-up workload: the kinds it repeats, the programs
// whose golden references its kernel kinds compare against, and the
// in-process server its hit and miss kinds talk to.
type setupEnv struct {
	loop  []*kind // closed-loop kinds
	open  []*kind // open-loop request kinds (serve)
	progs []*program
	hits  []*request
	svc   *service
}

func (e *setupEnv) close() {
	if e.svc != nil {
		e.svc.close()
	}
}

// Request mix of the hit and miss kinds: 60% repeats, split evenly
// between the two hit specs, and 40% fresh programs over three machines.
const (
	hitWeight  = 0.3
	missWeight = 0.4 / 3
)

// probeReps caps the closed-loop hit and miss probes, so the number of
// jobs the server retains does not grow with the code's speed; their
// repetitions are paced evenly over the run so they see all of its
// host phases.
const probeReps = 40

// probes adds the kinds that give a workload a value for the end-to-end
// metric families its own operations do not feed.
func (b *bench) probes(e *setupEnv, parent int, fams ...string) error {
	for _, f := range fams {
		switch f {
		case "mips":
			ks, progs, err := kernelKinds(b, parent, probeKernels)
			if err != nil {
				return err
			}
			for _, k := range ks {
				k.name = "probe/" + k.name
			}
			e.loop = append(e.loop, ks...)
			e.progs = append(e.progs, progs...)
		case famFigure:
			e.loop = append(e.loop, figureKind(fig11, 1, &b.util), figureKind(stall, 1, &b.util))
		case famJobs:
			fk, err := faultKind("probe/fault", 10, 1, b.o.seed)
			if err != nil {
				return err
			}
			xk, err := exploreKind("probe/explore", exploreSpace("probe", []int{2}), []string{"pathfinder"}, 1, b.o.scratchDir)
			if err != nil {
				return err
			}
			e.loop = append(e.loop, fk, difftestKind("probe/difftest", 10, 1, b.o.seed), xk)
		case famHit:
			ks, err := b.serviceKinds(e)
			if err != nil {
				return err
			}
			pace := time.Duration(b.o.seconds) * time.Second / probeReps
			for _, k := range ks {
				k.maxReps, k.pace = probeReps, pace
			}
			e.loop = append(e.loop, ks...)
		default:
			return fmt.Errorf("no probe for %s", f)
		}
	}
	return nil
}

// serviceKinds starts the server, warms its cache with the hit specs
// and returns the hit and miss kinds.
func (b *bench) serviceKinds(e *setupEnv) ([]*kind, error) {
	hits, err := hitRequests()
	if err != nil {
		return nil, err
	}
	e.svc, e.hits = startService(), hits
	var ks []*kind
	for _, r := range hits {
		if _, _, err := e.svc.submit(nil, 0, r); err != nil {
			return nil, fmt.Errorf("warming the cache: %w", err)
		}
		ks = append(ks, hitKind(e.svc, r, hitWeight))
	}
	for _, m := range missMachines {
		ks = append(ks, missKind(e.svc, &b.chk, m, rand.New(rand.NewSource(b.rng.Int63())), missWeight))
	}
	return ks, nil
}

func setupKernels(b *bench) (*setupEnv, error) {
	root := b.tr.begin("setup", 0)
	defer b.tr.end(root)
	e := &setupEnv{}
	ks, progs, err := kernelKinds(b, root, kernelSet)
	if err != nil {
		return e, err
	}
	e.loop, e.progs = ks, progs
	return e, b.probes(e, root, famFigure, famJobs, famHit)
}

func setupBatch(b *bench) (*setupEnv, error) {
	root := b.tr.begin("setup", 0)
	defer b.tr.end(root)
	e := &setupEnv{}
	for _, f := range []figure{fig9a, fig9b, fig10a, fig11, fig12, stall} {
		e.loop = append(e.loop, figureKind(f, workers(), &b.util))
	}
	fk, err := faultKind("fault", 60, workers(), b.o.seed)
	if err != nil {
		return e, err
	}
	xk, err := exploreKind("explore", exploreSpace("batch", []int{2, 4, 8}), []string{"pathfinder", "nw"}, workers(), b.o.scratchDir)
	if err != nil {
		return e, err
	}
	e.loop = append(e.loop, fk, difftestKind("difftest", 40, workers(), b.o.seed), xk)
	return e, b.probes(e, root, "mips", famHit)
}

// serveRate is the open loop's mean request rate: at ~40% misses of a
// few ms each it keeps the server well below capacity on two CPUs.
const serveRate = 25.0

// openShare is the part of the run the open loop's schedule spans; the
// rest runs the probes. The two alternate in openSegments segments, so
// both see all of the run's host phases.
const (
	openShare    = 0.5
	openSegments = 8
)

func setupServe(b *bench) (*setupEnv, error) {
	root := b.tr.begin("setup", 0)
	defer b.tr.end(root)
	e := &setupEnv{}
	ks, err := b.serviceKinds(e)
	if err != nil {
		return e, err
	}
	e.open = ks
	return e, b.probes(e, root, "mips", famFigure, famJobs)
}

// prepare computes the references the checks compare against; it runs
// once, after set-up is timed.
func (e *setupEnv) prepare() error {
	for _, r := range e.hits {
		if err := r.reference(); err != nil {
			return err
		}
	}
	var kernelKinds []*kind
	for _, k := range e.loop {
		if k.prog != nil {
			kernelKinds = append(kernelKinds, k)
		}
	}
	return finishKernels(kernelKinds, e.progs)
}

// measure runs the closed loop until the deadline, alternating with
// segments of the open loop when the workload has one.
func (e *setupEnv) measure(b *bench, until time.Time) {
	b.start = time.Now()
	if len(e.open) == 0 {
		b.closedLoop(e.loop, until, minRounds)
		return
	}
	total := time.Until(until)
	n := int(serveRate*total.Seconds()*openShare + 0.5)
	for i := 0; i < openSegments; i++ {
		b.openLoop(e.open, (n*(i+1))/openSegments-(n*i)/openSegments)
		b.closedLoop(e.loop, b.start.Add(total*time.Duration(i+1)/openSegments), 1)
	}
}

// openLoop issues n requests on a seeded Poisson schedule at serveRate,
// each on its own goroutine regardless of whether earlier ones have
// been served, and waits for all of them. Latency is timed from each
// request's due time, so a stall also delays the requests queued
// behind it. In a traced run every other request records spans.
func (b *bench) openLoop(ks []*kind, n int) {
	var total float64
	for _, k := range ks {
		total += k.weight
	}
	due := make([]time.Duration, n)
	pick := make([]*kind, n)
	t := 0.0
	for i := range due {
		t += b.rng.ExpFloat64() / serveRate
		due[i] = time.Duration(t * float64(time.Second))
		x := b.rng.Float64() * total
		for _, k := range ks {
			if pick[i] = k; x < k.weight {
				break
			}
			x -= k.weight
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range due {
		at := start.Add(due[i])
		sleepUntil(at)
		var tr *tracer
		if i%2 == 0 {
			tr = b.tr
		}
		k := pick[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := tr.begin("op:"+k.name, 0)
			d, out, err := k.run(tr, root, at)
			tr.end(root)
			b.mu.Lock()
			defer b.mu.Unlock()
			b.record(k, tr != nil, d, out, err)
		}()
	}
	wg.Wait()
}

// sleepUntil sleeps to just before at, then yields until at: the
// runtime's timers can oversleep by a millisecond, which would count
// against every request's latency.
func sleepUntil(at time.Time) {
	if d := time.Until(at) - 2*time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(at) {
		runtime.Gosched()
	}
}
