package diag_test

// Golden event-count tests: a fixed kernel on a fixed machine must
// emit exactly the same event stream forever. The pinned counts are
// cross-checkable by hand — the kernel is the package example's
// 100-iteration count loop (2 setup instructions + 100×(addi, blt) +
// ebreak ⇒ 202 retires), its backward branch is taken 99 times and
// every one is a datapath reuse hit, and occupancy is sampled every 64
// retires (4 samples over 202). A change here means the timing model
// or the emit points moved; update deliberately, never to make a
// failure go away.

import (
	"testing"

	"diag"
)

const eventLoopSrc = `
    li   t0, 0
    li   t1, 100
loop:
    addi t0, t0, 1
    blt  t0, t1, loop
    ebreak
`

func TestGoldenEventCountsRing(t *testing.T) {
	p, err := diag.Assemble(eventLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	col := diag.NewEventCollector(0)
	res, err := diag.DiAG(diag.F4C2()).Run(p, diag.WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}

	want := map[diag.EventKind]uint64{
		diag.EventClusterLoad:      1,   // the whole loop fits one I-line
		diag.EventClusterEvict:     0,   // nothing competes for clusters
		diag.EventClusterReuse:     99,  // every backward branch reuses the datapath
		diag.EventLaneXfer:         102, // li, li, then 100× addi publish onto lanes
		diag.EventFLaneXfer:        0,
		diag.EventPEEnable:         1, // enabled once, with the line load
		diag.EventPEDisable:        0,
		diag.EventRetire:           202, // matches Stats.Retired below
		diag.EventSIMTThread:       0,
		diag.EventClusterOccupancy: 4, // sampled every 64 of 202 retires
	}
	for k, n := range want {
		if got := col.Count(k); got != n {
			t.Errorf("%s count = %d, want %d", k, got, n)
		}
	}
	if col.Count(diag.EventRetire) != res.DiAG.Retired {
		t.Errorf("retire events %d != Stats.Retired %d", col.Count(diag.EventRetire), res.DiAG.Retired)
	}
	if col.Total() != 409 {
		t.Errorf("total events = %d, want 409", col.Total())
	}
	if col.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", col.Dropped())
	}
}

func TestGoldenEventCountsBaseline(t *testing.T) {
	p, err := diag.Assemble(eventLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	col := diag.NewEventCollector(0)
	res, err := diag.OoO(diag.Baseline()).Run(p, diag.WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	st := *res.Baseline

	// Every retired instruction passes through all five pipeline stages.
	for _, k := range []diag.EventKind{
		diag.EventFetch, diag.EventRename, diag.EventIssue,
		diag.EventWriteback, diag.EventCommit,
	} {
		if got := col.Count(k); got != st.Retired {
			t.Errorf("%s count = %d, want %d (one per retired instruction)", k, got, st.Retired)
		}
	}
	want := map[diag.EventKind]uint64{
		diag.EventMispredict:   3, // cold predictor + the final not-taken exit
		diag.EventFlush:        3, // one squash per mispredict
		diag.EventROBOccupancy: 4, // sampled every 64 of 202 retires
		diag.EventIQOccupancy:  4,
		diag.EventLSQOccupancy: 4,
	}
	for k, n := range want {
		if got := col.Count(k); got != n {
			t.Errorf("%s count = %d, want %d", k, got, n)
		}
	}
	if st.Retired != 202 {
		t.Errorf("retired = %d, want 202", st.Retired)
	}
	if col.Count(diag.EventMispredict) != st.Mispredicts {
		t.Errorf("mispredict events %d != Stats.Mispredicts %d",
			col.Count(diag.EventMispredict), st.Mispredicts)
	}
	if col.Total() != 1028 {
		t.Errorf("total events = %d, want 1028", col.Total())
	}
}

// TestObserverMetricsAgree: the Metrics registry derives its counters
// from the same stream the collector retains, so the two observers on
// one tee must agree with each other.
func TestObserverMetricsAgree(t *testing.T) {
	p, err := diag.Assemble(eventLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	col := diag.NewEventCollector(0)
	met := diag.NewMetrics(0)
	if _, err := diag.DiAG(diag.F4C2()).Run(p, diag.WithObserver(diag.ObserverTee(col, met))); err != nil {
		t.Fatal(err)
	}
	if got := met.Counter("ev/retire"); got != col.Count(diag.EventRetire) {
		t.Errorf("registry ev/retire = %d, collector = %d", got, col.Count(diag.EventRetire))
	}
	if h := met.Hist("retire/latency"); h == nil || h.Count() != col.Count(diag.EventRetire) {
		t.Errorf("retire/latency histogram missing or short: %+v", h)
	}
	snap := met.Snapshot()
	if snap.Counters["ev/cluster-reuse"] != 99 {
		t.Errorf("snapshot ev/cluster-reuse = %d, want 99", snap.Counters["ev/cluster-reuse"])
	}
}
