package diag

import (
	"fmt"
	"testing"

	"diag/internal/mem"
)

// TestLaneDelaySegmentTable pins the ring's lane segment table to the
// division form it replaces, to/k - from/k, for every producer/consumer
// pair of every Table 2 geometry, with buffer spacings k that are and
// are not powers of two.
func TestLaneDelaySegmentTable(t *testing.T) {
	for _, base := range Table2Configs() {
		for _, k := range []int{1, 2, 3, 5, 8, 16} {
			cfg := base
			cfg.LaneBufferEvery = k
			t.Run(fmt.Sprintf("%s/k%d", cfg.Name, k), func(t *testing.T) {
				r := newRing(cfg, mem.New(), 0, nil)
				n := cfg.Clusters * cfg.PEsPerCluster
				for from := -1; from < n; from++ {
					for to := 0; to < n; to++ {
						var want int64
						switch {
						case from < 0:
						case from <= to:
							want = int64(to/k - from/k)
						default:
							want = int64(cfg.BusCycles)
						}
						if got := r.laneDelay(from, to); got != want {
							t.Fatalf("laneDelay(%d, %d) = %d, want %d", from, to, got, want)
						}
					}
				}
			})
		}
	}
}

// TestSetStateRejectsOutOfRangeProducer: laneDelay indexes the segment
// table by a register lane's producer position, so a restored state
// (decoded from outside the program) naming a position outside the
// window must fail SetState rather than panic in the next step.
func TestSetStateRejectsOutOfRangeProducer(t *testing.T) {
	cfg := F4C2()
	n := cfg.Clusters * cfg.PEsPerCluster
	for _, tc := range []struct {
		pos int
		fp  bool
		ok  bool
	}{{-1, false, true}, {n - 1, true, true}, {-2, false, false}, {n, false, false}, {n, true, false}} {
		st := newRing(cfg, mem.New(), 0, nil).State()
		if tc.fp {
			st.FPSrc[7].Pos = tc.pos
		} else {
			st.IntSrc[7].Pos = tc.pos
		}
		err := newRing(cfg, mem.New(), 0, nil).SetState(&st)
		if (err == nil) != tc.ok {
			t.Errorf("producer position %d (fp %v): SetState error %v, want ok=%v", tc.pos, tc.fp, err, tc.ok)
		}
	}
}
