package obsv

import "testing"

// BenchmarkRegistryEmit measures one Registry.Emit per kind family: a
// pipeline kind (counter only), the retire/commit latency kinds (counter
// and histogram), and the occupancy kinds (counter, gauge and the
// downsampled timeseries). Each iteration emits one event, cycling
// through the family's kinds with an advancing cycle.
func BenchmarkRegistryEmit(b *testing.B) {
	for _, fam := range []struct {
		name  string
		kinds []Kind
	}{
		{"pipeline", []Kind{KindFetch, KindRename, KindIssue, KindWriteback, KindLaneXfer, KindClusterLoad}},
		{"latency", []Kind{KindRetire, KindCommit}},
		{"occupancy", []Kind{KindClusterOccupancy, KindROBOccupancy, KindIQOccupancy, KindLSQOccupancy}},
	} {
		b.Run(fam.name, func(b *testing.B) {
			r := NewRegistry(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Emit(Event{Cycle: int64(i), Kind: fam.kinds[i%len(fam.kinds)], Val: int64(i & 63)})
			}
		})
	}
}
