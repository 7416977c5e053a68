// Package cache provides the timing-only cache models shared by the DiAG
// and out-of-order machines: parameterizable set-associative caches with
// LRU replacement, optional banking with per-bank occupancy, a fixed-
// latency DRAM backstop, and an optional next-line prefetcher.
//
// Caches here model time, not data — data always lives in mem.Memory and
// is functionally correct regardless of cache state. An access takes a
// current cycle and returns the cycle at which the value is available,
// which lets callers overlap misses (approximating non-blocking caches
// with unlimited MSHRs but finite bank bandwidth).
package cache

import (
	"fmt"
	"math/bits"
)

// Port is anything that can service a timed memory access.
type Port interface {
	// Access starts a read or write of the line containing addr at cycle
	// `now` and returns the completion cycle.
	Access(now int64, addr uint32, write bool) int64
}

// Stats counts cache events.
// Field order is diag-snap/v1: a new or moved field needs a schema bump.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	Prefetches uint64
}

// Add accumulates o's counters into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.Prefetches += o.Prefetches
}

// MissRate returns misses per access, or 0 if never accessed.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Config parameterizes one cache level.
type Config struct {
	Name       string
	Size       int  // total bytes
	LineSize   int  // bytes per line (power of two)
	Assoc      int  // ways; 1 = direct-mapped
	Latency    int  // hit latency in cycles
	Banks      int  // independent banks (default 1)
	BusyCycles int  // per-access occupancy of a bank (default 1)
	Prefetch   bool // fetch line+1 into the cache on each miss
}

func (c *Config) setDefaults() {
	if c.Banks == 0 {
		c.Banks = 1
	}
	if c.BusyCycles == 0 {
		c.BusyCycles = 1
	}
}

func (c Config) validate() error {
	c.setDefaults()
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache %s: assoc %d invalid", c.Name, c.Assoc)
	}
	if c.Size <= 0 || c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.Size)
	}
	sets := c.Size / (c.LineSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("cache %s: bank count %d not a power of two", c.Name, c.Banks)
	}
	return nil
}

type way struct {
	tag     uint32
	valid   bool
	dirty   bool
	lastUse int64
}

// pageBits is log2 of how many consecutive sets share one page of ways
// (fewer when the whole cache has fewer sets).
const pageBits = 6

// Cache is one set-associative cache level.
//
// The ways live in pages of consecutive sets, allocated on the first
// install into one of their sets. A page never allocated reads as
// all-invalid ways, so building a cache costs its page table, not its
// capacity: a machine that runs a short program touches a few of a
// 4 MiB L2's 128 pages.
type Cache struct {
	cfg   Config
	lower Port

	pages     [][]way // set-major; nil until the first install into it
	pageWays  int     // ways per page: sets per page * Assoc
	pageShift uint    // set >> pageShift is the set's page
	pageMask  uint32  // set & pageMask is its set within the page

	busyUntil []int64 // per bank
	lastReq   []int64 // per bank: latest request time seen
	useClock  int64   // LRU tick

	// index's shifts and masks, derived from the geometry in New: every
	// line size, set count and bank count is a power of two (validate),
	// so they equal its divisions and remainders exactly.
	lineShift, setShift uint
	setMask, bankMask   uint32

	Stats Stats
}

// New builds a cache in front of lower. It panics on invalid geometry
// (configurations are static and authored in code).
func New(cfg Config, lower Port) *Cache {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	setShift := uint(bits.TrailingZeros(uint(nsets)))
	pageShift := min(setShift, pageBits)
	return &Cache{
		cfg:       cfg,
		lower:     lower,
		pages:     make([][]way, nsets>>pageShift),
		pageWays:  cfg.Assoc << pageShift,
		pageShift: pageShift,
		pageMask:  1<<pageShift - 1,
		busyUntil: make([]int64, cfg.Banks),
		lastReq:   make([]int64, cfg.Banks),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:  setShift,
		setMask:   uint32(nsets - 1),
		bankMask:  uint32(cfg.Banks - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// index splits addr into its set, tag and bank: line % sets, line /
// sets and line % Banks of line = addr / LineSize, computed by shifts
// and masks.
func (c *Cache) index(addr uint32) (set uint32, tag uint32, bank uint32) {
	line := addr >> c.lineShift
	return line & c.setMask, line >> c.setShift, line & c.bankMask
}

// ways returns set's ways, or nil while its page was never allocated
// (every way invalid).
func (c *Cache) ways(set uint32) []way {
	p := c.pages[set>>c.pageShift]
	if p == nil {
		return nil
	}
	i := int(set&c.pageMask) * c.cfg.Assoc
	return p[i : i+c.cfg.Assoc]
}

// Access implements Port.
func (c *Cache) Access(now int64, addr uint32, write bool) int64 {
	c.Stats.Accesses++
	set, tag, bank := c.index(addr)

	// Bank occupancy: requests arriving in time order queue behind the
	// bank; a backdated request (callers that sweep threads one at a time
	// issue accesses out of time order) bypasses occupancy rather than
	// queueing behind traffic from its own future.
	start := now
	if now >= c.lastReq[bank] {
		if c.busyUntil[bank] > start {
			start = c.busyUntil[bank]
		}
		c.busyUntil[bank] = start + int64(c.cfg.BusyCycles)
		c.lastReq[bank] = now
	}

	c.useClock++
	ways := c.ways(set)
	for i := range ways {
		w := &ways[i]
		if w.valid && w.tag == tag {
			c.Stats.Hits++
			w.lastUse = c.useClock
			if write {
				w.dirty = true
			}
			return start + int64(c.cfg.Latency)
		}
	}

	// Miss: fetch from below, install with LRU replacement.
	c.Stats.Misses++
	done := start + int64(c.cfg.Latency)
	if c.lower != nil {
		done = c.lower.Access(start+int64(c.cfg.Latency), addr, false)
	}
	c.install(set, tag, write)
	if c.cfg.Prefetch {
		c.prefetchLine(addr + uint32(c.cfg.LineSize))
	}
	return done
}

func (c *Cache) install(set, tag uint32, dirty bool) {
	p := &c.pages[set>>c.pageShift]
	if *p == nil {
		*p = make([]way, c.pageWays)
	}
	ways := c.ways(set)
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	w := &ways[victim]
	if w.valid {
		c.Stats.Evictions++
		if w.dirty {
			c.Stats.Writebacks++
			if c.lower != nil {
				// Writebacks consume lower-level bandwidth but the
				// requesting instruction does not wait on them.
				c.lower.Access(c.useClock, (w.tag<<c.setShift|set)<<c.lineShift, true)
			}
		}
	}
	*w = way{tag: tag, valid: true, dirty: dirty, lastUse: c.useClock}
}

// prefetchLine warms the line containing addr without charging latency to
// the demand access.
func (c *Cache) prefetchLine(addr uint32) {
	set, tag, _ := c.index(addr)
	for _, w := range c.ways(set) {
		if w.valid && w.tag == tag {
			return
		}
	}
	c.Stats.Prefetches++
	if c.lower != nil {
		c.lower.Access(c.useClock, addr, false)
	}
	c.install(set, tag, false)
}

// Contains reports whether the line holding addr is resident (no state
// change); used by tests and the DiAG memory-lane model.
func (c *Cache) Contains(addr uint32) bool {
	set, tag, _ := c.index(addr)
	for _, w := range c.ways(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Flush invalidates all lines, dropping every page, and resets bank
// occupancy, keeping stats.
func (c *Cache) Flush() {
	clear(c.pages)
	for i := range c.busyUntil {
		c.busyUntil[i] = 0
		c.lastReq[i] = 0
	}
}

// DRAM is the fixed-latency memory backstop at the bottom of the
// hierarchy.
type DRAM struct {
	Latency  int
	Accesses uint64
}

// Access implements Port.
func (d *DRAM) Access(now int64, addr uint32, write bool) int64 {
	d.Accesses++
	return now + int64(d.Latency)
}

// RoundSize rounds size down to the largest valid capacity for the given
// line size and associativity (set count must be a power of two). Used
// when partitioning a shared cache across cores/rings.
func RoundSize(size, lineSize, assoc int) int {
	waySize := lineSize * assoc
	sets := size / waySize
	if sets < 1 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return p * waySize
}
