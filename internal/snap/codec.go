package snap

import (
	"fmt"

	"diag/internal/branch"
	"diag/internal/cache"
	"diag/internal/diag"
	"diag/internal/iss"
	"diag/internal/mem"
	"diag/internal/multi"
	"diag/internal/ooo"
)

// writer appends fixed-order little-endian fields to a byte slice.
type writer struct {
	b []byte
}

func (w *writer) u8(v uint8) { w.b = append(w.b, v) }

func (w *writer) bl(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) u32(v uint32) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (w *writer) u64(v uint64) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func (w *writer) i64(v int64) { w.u64(uint64(v)) }
func (w *writer) i32(v int32) { w.u32(uint32(v)) }
func (w *writer) vint(v int)  { w.i64(int64(v)) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// reader consumes fixed-order little-endian fields with a sticky error:
// after the first failure every read returns zero values and the
// decoder unwinds without touching out-of-bounds memory.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrFormat}, args...)...)
	}
}

// take returns the next n bytes, or nil after setting the sticky error.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("field of %d bytes overruns input (offset %d of %d)", n, r.off, len(r.b))
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) bl() bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("boolean byte %d is not 0 or 1", v)
		return false
	}
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *reader) i64() int64 { return int64(r.u64()) }
func (r *reader) i32() int32 { return int32(r.u32()) }
func (r *reader) vint() int  { return int(r.i64()) }

func (r *reader) str() string {
	n := r.u32()
	if uint64(n) > uint64(len(r.b)-r.off) {
		r.fail("string of %d bytes overruns input", n)
		return ""
	}
	return string(r.take(int(n)))
}

// count reads a slice length and validates that elemMin bytes per
// element fit in the remaining input, bounding every allocation by the
// input size.
func (r *reader) count(elemMin int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemMin) > uint64(len(r.b)-r.off) {
		r.fail("%d elements of at least %d bytes overrun input (%d bytes left)", n, elemMin, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (w *writer) i64s(s []int64) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.i64(v)
	}
}

func (r *reader) i64s() []int64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = r.i64()
	}
	return s
}

func (w *writer) bools(s []bool) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.bl(v)
	}
}

func (r *reader) bools() []bool {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	s := make([]bool, n)
	for i := range s {
		s[i] = r.bl()
	}
	return s
}

func (w *writer) u32s(s []uint32) {
	w.u32(uint32(len(s)))
	for _, v := range s {
		w.u32(v)
	}
}

func (r *reader) u32s() []uint32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	s := make([]uint32, n)
	for i := range s {
		s[i] = r.u32()
	}
	return s
}

func (w *writer) u8s(s []uint8) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

func (r *reader) u8s() []uint8 {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	return append([]uint8(nil), r.take(n)...)
}

// ---- shared component states ----

func putCacheStats(w *writer, s *cache.Stats) {
	w.u64(s.Accesses)
	w.u64(s.Hits)
	w.u64(s.Misses)
	w.u64(s.Evictions)
	w.u64(s.Writebacks)
	w.u64(s.Prefetches)
}

func getCacheStats(r *reader, s *cache.Stats) {
	s.Accesses = r.u64()
	s.Hits = r.u64()
	s.Misses = r.u64()
	s.Evictions = r.u64()
	s.Writebacks = r.u64()
	s.Prefetches = r.u64()
}

func putCacheState(w *writer, s *cache.State) {
	w.u32(uint32(len(s.Ways)))
	for _, way := range s.Ways {
		w.u32(way.Tag)
		w.bl(way.Valid)
		w.bl(way.Dirty)
		w.i64(way.LastUse)
	}
	w.i64s(s.BusyUntil)
	w.i64s(s.LastReq)
	w.i64(s.UseClock)
	putCacheStats(w, &s.Stats)
}

func getCacheState(r *reader, s *cache.State) {
	n := r.count(14) // 4 + 1 + 1 + 8 bytes per way
	if n > 0 {
		s.Ways = make([]cache.WayState, n)
		for i := range s.Ways {
			s.Ways[i] = cache.WayState{Tag: r.u32(), Valid: r.bl(), Dirty: r.bl(), LastUse: r.i64()}
		}
	}
	s.BusyUntil = r.i64s()
	s.LastReq = r.i64s()
	s.UseClock = r.i64()
	getCacheStats(r, &s.Stats)
}

func putTournament(w *writer, s *branch.TournamentState) {
	w.u8s(s.Bimodal)
	w.u8s(s.GShare)
	w.u32(s.History)
	w.u8s(s.Chooser)
}

func getTournament(r *reader, s *branch.TournamentState) {
	s.Bimodal = r.u8s()
	s.GShare = r.u8s()
	s.History = r.u32()
	s.Chooser = r.u8s()
}

func putBTB(w *writer, s *branch.BTBState) {
	w.u32s(s.Tags)
	w.u32s(s.Targets)
	w.bools(s.Valid)
}

func getBTB(r *reader, s *branch.BTBState) {
	s.Tags = r.u32s()
	s.Targets = r.u32s()
	s.Valid = r.bools()
}

func putRAS(w *writer, s *branch.RASState) {
	w.u32s(s.Stack)
	w.vint(s.Top)
	w.vint(s.Depth)
}

func getRAS(r *reader, s *branch.RASState) {
	s.Stack = r.u32s()
	s.Top = r.vint()
	s.Depth = r.vint()
}

func putCPU(w *writer, s *iss.CPUState) {
	w.u32(s.PC)
	for _, v := range s.X {
		w.u32(v)
	}
	for _, v := range s.F {
		w.u32(v)
	}
	w.bl(s.Halted)
	w.str(s.ErrMsg)
	w.u64(s.Instret)
	w.bl(s.NoPredecode)
	w.u64(s.InterruptAt)
	w.u32(s.InterruptVector)
	w.u32(s.EPC)
	w.bl(s.Trapped)
}

func getCPU(r *reader, s *iss.CPUState) {
	s.PC = r.u32()
	for i := range s.X {
		s.X[i] = r.u32()
	}
	for i := range s.F {
		s.F[i] = r.u32()
	}
	s.Halted = r.bl()
	s.ErrMsg = r.str()
	s.Instret = r.u64()
	s.NoPredecode = r.bl()
	s.InterruptAt = r.u64()
	s.InterruptVector = r.u32()
	s.EPC = r.u32()
	s.Trapped = r.bl()
}

func putWatchdog(w *writer, s *iss.WatchdogState) {
	for _, v := range s.Recent {
		w.u64(v)
	}
	w.vint(s.N)
	w.vint(s.Pos)
}

func getWatchdog(r *reader, s *iss.WatchdogState) {
	for i := range s.Recent {
		s.Recent[i] = r.u64()
	}
	s.N = r.vint()
	s.Pos = r.vint()
}

func putMem(w *writer, s *mem.State) {
	w.u32(s.CodeLo)
	w.u32(s.CodeHi)
	w.u64(s.CodeGen)
	w.u32(uint32(len(s.Pages)))
	for i := range s.Pages {
		w.u32(s.Pages[i].Index)
		w.b = append(w.b, s.Pages[i].Data[:]...)
	}
}

func getMem(r *reader, s *mem.State) {
	s.CodeLo = r.u32()
	s.CodeHi = r.u32()
	s.CodeGen = r.u64()
	n := r.count(4 + mem.PageSize)
	if n == 0 {
		return
	}
	s.Pages = make([]mem.PageState, n)
	for i := range s.Pages {
		s.Pages[i].Index = r.u32()
		copy(s.Pages[i].Data[:], r.take(mem.PageSize))
	}
}

// ---- ISS snapshot ----

func putISS(w *writer, s *ISSState) {
	putCPU(w, &s.CPU)
	putMem(w, &s.Mem)
}

func getISS(r *reader) *ISSState {
	s := &ISSState{}
	getCPU(r, &s.CPU)
	getMem(r, &s.Mem)
	return s
}

// ---- DiAG machine snapshot ----

func putDiAGConfig(w *writer, c *diag.Config) {
	w.str(c.Name)
	w.vint(int(c.ISA))
	w.vint(c.PEsPerCluster)
	w.vint(c.Clusters)
	w.vint(c.Rings)
	w.vint(c.FreqMHz)
	w.vint(c.LaneBufferEvery)
	w.vint(c.DecodeCycles)
	w.vint(c.BusCycles)
	w.vint(c.RedirectCycles)
	w.vint(c.L1ISize)
	w.vint(c.L1DSize)
	w.vint(c.L1DBanks)
	w.vint(c.L2Size)
	w.vint(c.MemLaneLines)
	w.vint(c.DRAMLatency)
	w.u64(c.MaxInstructions)
	w.i64(c.MaxCycles)
	w.u64(c.DisabledClusterMask)
	w.bl(c.StridePrefetch)
	w.vint(c.SharedFPUs)
	w.bl(c.SpeculativeDatapaths)
}

func getDiAGConfig(r *reader, c *diag.Config) {
	c.Name = r.str()
	c.ISA = diag.ISALevel(r.vint())
	c.PEsPerCluster = r.vint()
	c.Clusters = r.vint()
	c.Rings = r.vint()
	c.FreqMHz = r.vint()
	c.LaneBufferEvery = r.vint()
	c.DecodeCycles = r.vint()
	c.BusCycles = r.vint()
	c.RedirectCycles = r.vint()
	c.L1ISize = r.vint()
	c.L1DSize = r.vint()
	c.L1DBanks = r.vint()
	c.L2Size = r.vint()
	c.MemLaneLines = r.vint()
	c.DRAMLatency = r.vint()
	c.MaxInstructions = r.u64()
	c.MaxCycles = r.i64()
	c.DisabledClusterMask = r.u64()
	c.StridePrefetch = r.bl()
	c.SharedFPUs = r.vint()
	c.SpeculativeDatapaths = r.bl()
}

func putDiAGStats(w *writer, s *diag.Stats) {
	w.i64(s.Cycles)
	w.u64(s.Retired)
	w.i64(s.ClusterCycles)
	for _, v := range s.StallCycles {
		w.i64(v)
	}
	w.u64(s.LinesFetched)
	w.u64(s.ReuseHits)
	w.u64(s.ReuseMisses)
	w.u64(s.TakenBranches)
	w.u64(s.Redirects)
	w.i64(s.PEBusyCycles)
	w.i64(s.FPUBusyCycles)
	w.u64(s.ALUOps)
	w.u64(s.FPOps)
	w.u64(s.LaneWrites)
	w.u64(s.MemOps)
	w.u64(s.Loads)
	w.u64(s.Stores)
	w.u64(s.StridePrefetches)
	w.u64(s.SpecDatapathHits)
	w.u64(s.SIMTRegions)
	w.u64(s.SIMTThreads)
	w.u64(s.SIMTPipelined)
	w.u64(s.SIMTRejects)
	putCacheStats(w, &s.L1I)
	putCacheStats(w, &s.L1D)
	putCacheStats(w, &s.L2)
	putCacheStats(w, &s.MemLanes)
	w.u64(s.DRAMAccesses)
}

func getDiAGStats(r *reader, s *diag.Stats) {
	s.Cycles = r.i64()
	s.Retired = r.u64()
	s.ClusterCycles = r.i64()
	for i := range s.StallCycles {
		s.StallCycles[i] = r.i64()
	}
	s.LinesFetched = r.u64()
	s.ReuseHits = r.u64()
	s.ReuseMisses = r.u64()
	s.TakenBranches = r.u64()
	s.Redirects = r.u64()
	s.PEBusyCycles = r.i64()
	s.FPUBusyCycles = r.i64()
	s.ALUOps = r.u64()
	s.FPOps = r.u64()
	s.LaneWrites = r.u64()
	s.MemOps = r.u64()
	s.Loads = r.u64()
	s.Stores = r.u64()
	s.StridePrefetches = r.u64()
	s.SpecDatapathHits = r.u64()
	s.SIMTRegions = r.u64()
	s.SIMTThreads = r.u64()
	s.SIMTPipelined = r.u64()
	s.SIMTRejects = r.u64()
	getCacheStats(r, &s.L1I)
	getCacheStats(r, &s.L1D)
	getCacheStats(r, &s.L2)
	getCacheStats(r, &s.MemLanes)
	s.DRAMAccesses = r.u64()
}

func putRing(w *writer, s *diag.RingState) {
	putCPU(w, &s.CPU)
	putWatchdog(w, &s.Watchdog)
	w.bools(s.Disabled)
	putCacheState(w, &s.ICache)
	putCacheState(w, &s.MemLanes)
	putCacheState(w, &s.L1D)
	w.u32(uint32(len(s.Clusters)))
	for i := range s.Clusters {
		c := &s.Clusters[i]
		w.u32(c.Base)
		w.bl(c.Loaded)
		w.i64(c.ReadyAt)
		w.i64(c.LastUse)
		w.i64(c.BusyTo)
	}
	w.i64s(s.PEFree)
	for i := range s.IntSrc {
		putOperand(w, &s.IntSrc[i])
	}
	for i := range s.FPSrc {
		putOperand(w, &s.FPSrc[i])
	}
	w.u32(uint32(len(s.Strides)))
	for i := range s.Strides {
		e := &s.Strides[i]
		w.u32(e.LastAddr)
		w.i32(e.Stride)
		w.bl(e.Valid)
		w.bl(e.Trained)
	}
	w.u32(uint32(len(s.FPUs)))
	for _, p := range s.FPUs {
		w.i64s(p)
	}
	w.u32(uint32(len(s.SpecTargets)))
	for i := range s.SpecTargets {
		w.u32(s.SpecTargets[i].Tag)
		w.u32(s.SpecTargets[i].Line)
	}
	w.i64(s.Now)
	w.i64(s.PrevRetire)
	w.i64(s.RedirectReady)
	w.i64(s.BusFreeAt)
	w.u64(s.Steps)
	putDiAGStats(w, &s.Stats)
}

func putOperand(w *writer, s *diag.OperandState) {
	w.i64(s.Ready)
	w.vint(s.Pos)
	w.bl(s.IsLoad)
}

func getOperand(r *reader, s *diag.OperandState) {
	s.Ready = r.i64()
	s.Pos = r.vint()
	s.IsLoad = r.bl()
}

func getRing(r *reader, s *diag.RingState) {
	getCPU(r, &s.CPU)
	getWatchdog(r, &s.Watchdog)
	s.Disabled = r.bools()
	getCacheState(r, &s.ICache)
	getCacheState(r, &s.MemLanes)
	getCacheState(r, &s.L1D)
	if n := r.count(29); n > 0 { // 4 + 1 + 3*8 bytes per cluster
		s.Clusters = make([]diag.ClusterState, n)
		for i := range s.Clusters {
			s.Clusters[i] = diag.ClusterState{Base: r.u32(), Loaded: r.bl(), ReadyAt: r.i64(), LastUse: r.i64(), BusyTo: r.i64()}
		}
	}
	s.PEFree = r.i64s()
	for i := range s.IntSrc {
		getOperand(r, &s.IntSrc[i])
	}
	for i := range s.FPSrc {
		getOperand(r, &s.FPSrc[i])
	}
	if n := r.count(10); n > 0 { // 4 + 4 + 1 + 1 bytes per stride entry
		s.Strides = make([]diag.StrideEntryState, n)
		for i := range s.Strides {
			s.Strides[i] = diag.StrideEntryState{LastAddr: r.u32(), Stride: r.i32(), Valid: r.bl(), Trained: r.bl()}
		}
	}
	if n := r.count(4); n > 0 { // at least an inner length per pool
		s.FPUs = make([][]int64, n)
		for i := range s.FPUs {
			if r.err != nil {
				return
			}
			s.FPUs[i] = r.i64s()
		}
	}
	if n := r.count(8); n > 0 { // 4 + 4 bytes per spec target
		s.SpecTargets = make([]diag.SpecTargetState, n)
		for i := range s.SpecTargets {
			s.SpecTargets[i] = diag.SpecTargetState{Tag: r.u32(), Line: r.u32()}
		}
	}
	s.Now = r.i64()
	s.PrevRetire = r.i64()
	s.RedirectReady = r.i64()
	s.BusFreeAt = r.i64()
	s.Steps = r.u64()
	getDiAGStats(r, &s.Stats)
}

// ringStateMin is a conservative lower bound on an encoded RingState:
// the fixed-size CPU and watchdog fields alone exceed it.
const ringStateMin = 512

// ---- OoO machine snapshot ----

func putOoOConfig(w *writer, c *ooo.Config) {
	w.str(c.Name)
	w.vint(c.Cores)
	w.vint(c.FetchWidth)
	w.vint(c.IssueWidth)
	w.vint(c.CommitWidth)
	w.vint(c.FrontendDepth)
	w.vint(c.ROBSize)
	w.vint(c.IQSize)
	w.vint(c.LSQSize)
	w.vint(c.IntALUs)
	w.vint(c.IntMulDiv)
	w.vint(c.FPUnits)
	w.vint(c.MemPorts)
	w.vint(c.PredictorBits)
	w.vint(c.BTBBits)
	w.vint(c.RASDepth)
	w.vint(c.L1ISize)
	w.vint(c.L1DSize)
	w.vint(c.L2Size)
	w.vint(c.DRAMLatency)
	w.u64(c.MaxInstructions)
	w.i64(c.MaxCycles)
}

func getOoOConfig(r *reader, c *ooo.Config) {
	c.Name = r.str()
	c.Cores = r.vint()
	c.FetchWidth = r.vint()
	c.IssueWidth = r.vint()
	c.CommitWidth = r.vint()
	c.FrontendDepth = r.vint()
	c.ROBSize = r.vint()
	c.IQSize = r.vint()
	c.LSQSize = r.vint()
	c.IntALUs = r.vint()
	c.IntMulDiv = r.vint()
	c.FPUnits = r.vint()
	c.MemPorts = r.vint()
	c.PredictorBits = r.vint()
	c.BTBBits = r.vint()
	c.RASDepth = r.vint()
	c.L1ISize = r.vint()
	c.L1DSize = r.vint()
	c.L2Size = r.vint()
	c.DRAMLatency = r.vint()
	c.MaxInstructions = r.u64()
	c.MaxCycles = r.i64()
}

func putOoOStats(w *writer, s *ooo.Stats) {
	w.i64(s.Cycles)
	w.u64(s.Retired)
	w.u64(s.Branches)
	w.u64(s.Mispredicts)
	w.u64(s.BTBMisses)
	w.u64(s.FetchedInsts)
	w.u64(s.RenameOps)
	w.u64(s.IQWakeups)
	w.u64(s.RegReads)
	w.u64(s.RegWrites)
	w.u64(s.ROBWrites)
	w.i64(s.FUBusyCycles)
	w.i64(s.FPBusyCycles)
	w.u64(s.LSQSearches)
	w.u64(s.StoreForwards)
	w.u64(s.Loads)
	w.u64(s.Stores)
	putCacheStats(w, &s.L1I)
	putCacheStats(w, &s.L1D)
	putCacheStats(w, &s.L2)
	w.u64(s.DRAMAccesses)
}

func getOoOStats(r *reader, s *ooo.Stats) {
	s.Cycles = r.i64()
	s.Retired = r.u64()
	s.Branches = r.u64()
	s.Mispredicts = r.u64()
	s.BTBMisses = r.u64()
	s.FetchedInsts = r.u64()
	s.RenameOps = r.u64()
	s.IQWakeups = r.u64()
	s.RegReads = r.u64()
	s.RegWrites = r.u64()
	s.ROBWrites = r.u64()
	s.FUBusyCycles = r.i64()
	s.FPBusyCycles = r.i64()
	s.LSQSearches = r.u64()
	s.StoreForwards = r.u64()
	s.Loads = r.u64()
	s.Stores = r.u64()
	getCacheStats(r, &s.L1I)
	getCacheStats(r, &s.L1D)
	getCacheStats(r, &s.L2)
	s.DRAMAccesses = r.u64()
}

func putCore(w *writer, s *ooo.CoreState) {
	putCPU(w, &s.CPU)
	putWatchdog(w, &s.Watchdog)
	putCacheState(w, &s.ICache)
	putCacheState(w, &s.L1D)
	putTournament(w, &s.Pred)
	putBTB(w, &s.BTB)
	putRAS(w, &s.RAS)
	for _, v := range s.IntReady {
		w.i64(v)
	}
	for _, v := range s.FPReady {
		w.i64(v)
	}
	w.i64s(s.ALUFreeAt)
	w.i64s(s.MulDivFreeAt)
	w.i64s(s.FPFreeAt)
	w.i64s(s.MemFreeAt)
	w.i64s(s.RetireAt)
	w.vint(s.RetireHead)
	w.i64s(s.IssueTimes)
	w.vint(s.IssueHead)
	w.i64s(s.LSQTimes)
	w.vint(s.LSQHead)
	w.u32(uint32(len(s.StoreWindow)))
	for i := range s.StoreWindow {
		w.u32(s.StoreWindow[i].Addr)
		w.u32(s.StoreWindow[i].Size)
		w.i64(s.StoreWindow[i].Ready)
	}
	w.vint(s.StoreHead)
	w.vint(s.StoreLen)
	w.i64(s.FetchCycle)
	w.vint(s.FetchInGrp)
	w.i64(s.PrevRetire)
	w.vint(s.RetireInGrp)
	w.u64(s.Steps)
	w.i64(s.Now)
	putOoOStats(w, &s.Stats)
}

func getCore(r *reader, s *ooo.CoreState) {
	getCPU(r, &s.CPU)
	getWatchdog(r, &s.Watchdog)
	getCacheState(r, &s.ICache)
	getCacheState(r, &s.L1D)
	getTournament(r, &s.Pred)
	getBTB(r, &s.BTB)
	getRAS(r, &s.RAS)
	for i := range s.IntReady {
		s.IntReady[i] = r.i64()
	}
	for i := range s.FPReady {
		s.FPReady[i] = r.i64()
	}
	s.ALUFreeAt = r.i64s()
	s.MulDivFreeAt = r.i64s()
	s.FPFreeAt = r.i64s()
	s.MemFreeAt = r.i64s()
	s.RetireAt = r.i64s()
	s.RetireHead = r.vint()
	s.IssueTimes = r.i64s()
	s.IssueHead = r.vint()
	s.LSQTimes = r.i64s()
	s.LSQHead = r.vint()
	if n := r.count(16); n > 0 { // 4 + 4 + 8 bytes per store entry
		s.StoreWindow = make([]ooo.StoreEntryState, n)
		for i := range s.StoreWindow {
			s.StoreWindow[i] = ooo.StoreEntryState{Addr: r.u32(), Size: r.u32(), Ready: r.i64()}
		}
	}
	s.StoreHead = r.vint()
	s.StoreLen = r.vint()
	s.FetchCycle = r.i64()
	s.FetchInGrp = r.vint()
	s.PrevRetire = r.i64()
	s.RetireInGrp = r.vint()
	s.Steps = r.u64()
	s.Now = r.i64()
	getOoOStats(r, &s.Stats)
}

// coreStateMin is a conservative lower bound on an encoded CoreState.
const coreStateMin = 512

// ---- Machine envelope (both timing models) ----

// putMachine encodes the multi-unit envelope: configuration, memory,
// every unit, the L2 partitions, the DRAM total, and the next-unit
// cursor.
func putMachine[C, S any](w *writer, s *multi.State[C, S], putCfg func(*writer, *C), putUnit func(*writer, *S)) {
	putCfg(w, &s.Config)
	putMem(w, &s.Mem)
	w.u32(uint32(len(s.Units)))
	for i := range s.Units {
		putUnit(w, &s.Units[i])
	}
	w.u32(uint32(len(s.L2s)))
	for i := range s.L2s {
		putCacheState(w, &s.L2s[i])
	}
	w.u64(s.DRAMAccesses)
	w.vint(s.Next)
}

// getMachine decodes putMachine's envelope; unitMin is a lower bound on
// one encoded unit state, bounding the unit count against the input.
func getMachine[C, S any](r *reader, getCfg func(*reader, *C), getUnit func(*reader, *S), unitMin int) *multi.State[C, S] {
	s := &multi.State[C, S]{}
	getCfg(r, &s.Config)
	getMem(r, &s.Mem)
	if n := r.count(unitMin); n > 0 {
		s.Units = make([]S, n)
		for i := range s.Units {
			if r.err != nil {
				return s
			}
			getUnit(r, &s.Units[i])
		}
	}
	if n := r.count(34); n > 0 { // empty cache state: 4 lengths + clock + stats
		s.L2s = make([]cache.State, n)
		for i := range s.L2s {
			if r.err != nil {
				return s
			}
			getCacheState(r, &s.L2s[i])
		}
	}
	s.DRAMAccesses = r.u64()
	s.Next = r.vint()
	return s
}
