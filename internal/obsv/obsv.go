// Package obsv is the cycle-level observability layer shared by both
// timing machines: a typed per-cycle event stream, a metrics registry
// (counters, gauges, interval histograms, occupancy timeseries), and
// exporters (Chrome trace-event JSON for Perfetto, CSV timeseries, and
// a human-readable summary).
//
// The paper's evaluation (§7) reasons about DiAG through
// microarchitectural occupancy — lane propagation, cluster buffering
// and reuse, PE enable duty cycles, ROB/IQ pressure on the baseline —
// and this package is how the simulator surfaces those quantities
// mid-run rather than as end-of-run aggregates.
//
// # Design constraints
//
// Observability must cost nothing when it is off. The machines hold a
// nil Observer by default and hoist the nil check out of their inner
// step loops, so a disabled run performs zero allocations per step
// (pinned by internal/hostbench's TestStepLoopsAllocationFree). Event
// is a plain value struct: emitting one is a method call with no
// allocation; retention policy (and its allocation) belongs entirely
// to the Observer implementation.
//
// Observability must also be cheap when it is on. Registry.Emit does
// no allocation or map lookup after a kind's first event: that event
// resolves the kind's counter, gauge and histogram handles, so names
// are built once per kind per registry (pinned by internal/hostbench's
// TestObservedRunAllocationsFlat).
//
// # Typical use
//
//	col := obsv.NewCollector(0)
//	reg := obsv.NewRegistry(256)
//	res, err := diag.DiAG(cfg).Run(img, diag.WithObserver(obsv.Tee(col, reg)))
//	col.WriteChromeTrace(w, obsv.ChromeTraceOptions{})  // open in Perfetto
//	reg.WriteCSV(w2)                                    // occupancy timeseries
//
// See docs/OBSERVABILITY.md for the full event taxonomy and a Perfetto
// walkthrough.
package obsv

// Kind identifies one event type of the taxonomy. The DiAG ring and
// the out-of-order baseline emit disjoint subsets (plus the shared
// retire/commit pair); Kind values are stable across a run, so
// collectors can index per-kind arrays.
type Kind uint8

// The event taxonomy. DiAG ring kinds first, then the out-of-order
// pipeline kinds, then the sampled occupancy gauges.
const (
	// KindClusterLoad: an I-line was fetched and decoded into a cluster
	// (Loc = cluster, Addr = line base, Val = structural bus-wait cycles).
	KindClusterLoad Kind = iota
	// KindClusterEvict: a loaded cluster was chosen as victim and its
	// line dropped (Loc = cluster, Addr = the evicted line base).
	KindClusterEvict
	// KindClusterReuse: a backward redirect landed in an
	// already-constructed datapath — the paper's loop reuse hit
	// (§4.3.2). Loc = cluster, PC = branch, Addr = target.
	KindClusterReuse
	// KindLaneXfer: an integer register lane was written — a value
	// published onto lane rd and transported toward consumers (Loc =
	// window position, Val = rd register number).
	KindLaneXfer
	// KindFLaneXfer: a floating-point lane write (Loc = window
	// position, Val = rd register number).
	KindFLaneXfer
	// KindPEEnable: a cluster's PEs were enabled by a line load (Loc =
	// cluster, Val = PEs enabled).
	KindPEEnable
	// KindPEDisable: a cluster was fused off for degraded-mode
	// operation (Loc = cluster).
	KindPEDisable
	// KindRetire: the PC lane retired one instruction on the ring
	// (Cycle = retire cycle, PC, Loc = cluster, Addr = effective
	// address for memory ops, Val = cycles from execute start to
	// retire).
	KindRetire
	// KindSIMTThread: the thread spawner injected one pipelined
	// iteration (Cycle = entry, Loc = replica, Val = thread id).
	KindSIMTThread

	// KindFetch: the baseline frontend fetched an instruction (Cycle =
	// fetch-group cycle, PC).
	KindFetch
	// KindRename: rename/dispatch placed the instruction in the window
	// (Cycle = dispatch, PC).
	KindRename
	// KindIssue: the instruction won a functional unit (Cycle = issue,
	// PC).
	KindIssue
	// KindWriteback: the result wrote back (Cycle = writeback, PC).
	KindWriteback
	// KindCommit: the instruction committed in order (Cycle = commit,
	// PC, Val = cycles from issue to commit).
	KindCommit
	// KindMispredict: a branch or indirect jump resolved against the
	// prediction (Cycle = resolution, PC, Addr = actual target).
	KindMispredict
	// KindFlush: the frontend restarted after a squash (Cycle =
	// restart, Val = refill penalty in cycles).
	KindFlush

	// KindClusterOccupancy: sampled count of loaded clusters on the
	// ring (Val = clusters).
	KindClusterOccupancy
	// KindROBOccupancy: sampled count of ROB entries still in flight at
	// dispatch (Val = entries).
	KindROBOccupancy
	// KindIQOccupancy: sampled count of issue-queue entries not yet
	// issued at dispatch (Val = entries).
	KindIQOccupancy
	// KindLSQOccupancy: sampled count of LSQ entries still in flight at
	// dispatch (Val = entries).
	KindLSQOccupancy

	// NumKinds bounds Kind for per-kind arrays.
	NumKinds
)

var kindNames = [NumKinds]string{
	"cluster-load", "cluster-evict", "cluster-reuse",
	"lane-xfer", "flane-xfer", "pe-enable", "pe-disable",
	"retire", "simt-thread",
	"fetch", "rename", "issue", "writeback", "commit",
	"mispredict", "flush",
	"cluster-occupancy", "rob-occupancy", "iq-occupancy", "lsq-occupancy",
}

func (k Kind) String() string {
	if k >= NumKinds {
		return "kind-invalid"
	}
	return kindNames[k]
}

// Occupancy reports whether k is a sampled gauge (rendered as a
// Perfetto counter track) rather than a discrete pipeline event.
func (k Kind) Occupancy() bool { return k >= KindClusterOccupancy && k < NumKinds }

// Event is one observation. It is a plain value: emitting one never
// allocates, and the meaning of Loc/Addr/Val is documented per Kind.
type Event struct {
	Cycle int64  // simulated cycle the event is anchored to
	Kind  Kind   // taxonomy entry
	Unit  int32  // ring index (DiAG) or core index (baseline)
	Loc   int32  // cluster / window position / replica / pipeline slot
	PC    uint32 // instruction address, when the event has one
	Addr  uint32 // effective address, line base, or branch target
	Val   int64  // kind-specific payload: duration, occupancy, id
}

// Observer consumes the event stream. Implementations must tolerate
// events arriving with non-monotonic cycles: the ring's dataflow
// timestamps (and the baseline's per-stage times) are computed out of
// retirement order.
type Observer interface {
	Emit(Event)
}

// Nop is the zero-cost no-op Observer: every Emit is an empty inlined
// call. The machines treat a nil Observer as "off" and skip the call
// entirely; Nop exists for call sites that need a non-nil Observer.
type Nop struct{}

// Emit discards the event.
func (Nop) Emit(Event) {}

// Buffer is an Observer that records events in emission order for
// later replay. The sharded multi-ring machines give each shard a
// private Buffer while it runs on its own goroutine, then Replay the
// buffers into the real observer in ring order — so a sharded run's
// event stream is identical to the sequential engine's.
type Buffer struct {
	Events []Event
}

// Emit appends the event to the buffer.
func (b *Buffer) Emit(e Event) { b.Events = append(b.Events, e) }

// Replay emits every buffered event into dst in recorded order.
func (b *Buffer) Replay(dst Observer) {
	for _, e := range b.Events {
		dst.Emit(e)
	}
}

// tee fans one stream out to several observers.
type tee []Observer

func (t tee) Emit(e Event) {
	for _, o := range t {
		o.Emit(e)
	}
}

// Tee returns an Observer duplicating the stream to every non-nil
// target — typically a Collector (for export) plus a Registry (for
// metrics). Tee(nil...) returns nil, which the machines treat as off.
func Tee(os ...Observer) Observer {
	var t tee
	for _, o := range os {
		if o != nil {
			t = append(t, o)
		}
	}
	if len(t) == 0 {
		return nil
	}
	if len(t) == 1 {
		return t[0]
	}
	return t
}

// Collector retains the event stream in memory with per-kind counts.
// A limit bounds retention: once reached, further events still count
// but are not retained (Dropped reports how many), so a pathological
// run cannot exhaust host memory.
type Collector struct {
	events  []Event
	counts  [NumKinds]uint64
	limit   int
	dropped uint64
}

// DefaultCollectorLimit bounds retention when NewCollector is given a
// non-positive limit: 4M events ≈ 160 MB, far beyond any kernel in
// internal/workloads yet finite.
const DefaultCollectorLimit = 4 << 20

// NewCollector returns a Collector retaining up to limit events
// (DefaultCollectorLimit when limit <= 0).
func NewCollector(limit int) *Collector {
	if limit <= 0 {
		limit = DefaultCollectorLimit
	}
	return &Collector{limit: limit}
}

// Emit implements Observer.
func (c *Collector) Emit(e Event) {
	c.counts[e.Kind%NumKinds]++
	if len(c.events) >= c.limit {
		c.dropped++
		return
	}
	c.events = append(c.events, e)
}

// Events returns the retained events in emission order. The slice is
// the collector's backing store; callers must not mutate it.
func (c *Collector) Events() []Event { return c.events }

// Count returns how many events of kind k were emitted (including any
// dropped past the retention limit).
func (c *Collector) Count(k Kind) uint64 {
	if k >= NumKinds {
		return 0
	}
	return c.counts[k]
}

// Total returns the number of events emitted across all kinds.
func (c *Collector) Total() uint64 {
	var t uint64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// Dropped returns how many events exceeded the retention limit.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Reset empties the collector, keeping its retention limit.
func (c *Collector) Reset() {
	c.events = c.events[:0]
	c.counts = [NumKinds]uint64{}
	c.dropped = 0
}
