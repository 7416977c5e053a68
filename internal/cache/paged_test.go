package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// flatCache is the reference model for the paged Cache: every way of
// every set allocated up front in one flat array, indexed by division,
// with the same LRU, banking, writeback and prefetch rules.
type flatCache struct {
	cfg       Config
	lower     Port
	sets      [][]way
	busyUntil []int64
	lastReq   []int64
	useClock  int64
	stats     Stats
}

func newFlat(cfg Config, lower Port) *flatCache {
	cfg.setDefaults()
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	flat := make([]way, nsets*cfg.Assoc)
	sets := make([][]way, nsets)
	for i := range sets {
		sets[i] = flat[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return &flatCache{cfg: cfg, lower: lower, sets: sets,
		busyUntil: make([]int64, cfg.Banks), lastReq: make([]int64, cfg.Banks)}
}

func (f *flatCache) index(addr uint32) (set, tag, bank uint32) {
	line := addr / uint32(f.cfg.LineSize)
	n := uint32(len(f.sets))
	return line % n, line / n, line % uint32(f.cfg.Banks)
}

func (f *flatCache) Access(now int64, addr uint32, write bool) int64 {
	f.stats.Accesses++
	set, tag, bank := f.index(addr)
	start := now
	if now >= f.lastReq[bank] {
		if f.busyUntil[bank] > start {
			start = f.busyUntil[bank]
		}
		f.busyUntil[bank] = start + int64(f.cfg.BusyCycles)
		f.lastReq[bank] = now
	}
	f.useClock++
	for i := range f.sets[set] {
		w := &f.sets[set][i]
		if w.valid && w.tag == tag {
			f.stats.Hits++
			w.lastUse = f.useClock
			if write {
				w.dirty = true
			}
			return start + int64(f.cfg.Latency)
		}
	}
	f.stats.Misses++
	done := start + int64(f.cfg.Latency)
	if f.lower != nil {
		done = f.lower.Access(start+int64(f.cfg.Latency), addr, false)
	}
	f.install(set, tag, write)
	if f.cfg.Prefetch {
		f.prefetchLine(addr + uint32(f.cfg.LineSize))
	}
	return done
}

func (f *flatCache) install(set, tag uint32, dirty bool) {
	ways := f.sets[set]
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
		f.stats.Evictions++
		if w.dirty {
			f.stats.Writebacks++
			if f.lower != nil {
				f.lower.Access(f.useClock, (w.tag*uint32(len(f.sets))+set)*uint32(f.cfg.LineSize), true)
			}
		}
	}
	*w = way{tag: tag, valid: true, dirty: dirty, lastUse: f.useClock}
}

func (f *flatCache) prefetchLine(addr uint32) {
	if f.Contains(addr) {
		return
	}
	f.stats.Prefetches++
	if f.lower != nil {
		f.lower.Access(f.useClock, addr, false)
	}
	set, tag, _ := f.index(addr)
	f.install(set, tag, false)
}

func (f *flatCache) Contains(addr uint32) bool {
	set, tag, _ := f.index(addr)
	for _, w := range f.sets[set] {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

func (f *flatCache) Flush() {
	for _, set := range f.sets {
		clear(set)
	}
	clear(f.busyUntil)
	clear(f.lastReq)
}

func (f *flatCache) State() State {
	st := State{BusyUntil: append([]int64(nil), f.busyUntil...), LastReq: append([]int64(nil), f.lastReq...),
		UseClock: f.useClock, Stats: f.stats}
	for _, set := range f.sets {
		for _, w := range set {
			st.Ways = append(st.Ways, WayState{Tag: w.tag, Valid: w.valid, Dirty: w.dirty, LastUse: w.lastUse})
		}
	}
	return st
}

// logPort is a lower level that records every access it services.
type logPort struct{ log []string }

func (l *logPort) Access(now int64, addr uint32, write bool) int64 {
	l.log = append(l.log, fmt.Sprint(now, addr, write))
	return now + 40
}

// pagedGeometries are the shapes the paged cache must match the flat
// model on: direct-mapped, 8-way over several pages, the memory lanes'
// fully associative single set, and fewer sets than one page.
var pagedGeometries = []Config{
	{Name: "dm", Size: 32 << 10, LineSize: 64, Assoc: 1, Latency: 1},
	{Name: "8way", Size: 256 << 10, LineSize: 64, Assoc: 8, Latency: 12, Banks: 2},
	{Name: "memlanes", Size: 4 * 64, LineSize: 64, Assoc: 4, Latency: 1},
	{Name: "small", Size: 16 * 2 * 32, LineSize: 32, Assoc: 2, Latency: 2, Banks: 4, BusyCycles: 2},
}

// TestPagedMatchesFlat drives the paged cache and the flat reference
// with the same random read/write streams, prefetch on and off, and
// compares every Access completion cycle, the lower level's traffic,
// Stats, Contains and State. Addresses fall in a window a few times
// each cache's capacity, so the streams hit, miss, evict and write
// back; the clock mostly advances but sometimes steps back, and now and
// then the caches are flushed.
func TestPagedMatchesFlat(t *testing.T) {
	for _, g := range pagedGeometries {
		for _, prefetch := range []bool{false, true} {
			cfg := g
			cfg.Prefetch = prefetch
			t.Run(fmt.Sprintf("%s/prefetch=%v", cfg.Name, prefetch), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					comparePagedFlat(t, cfg, seed)
				}
			})
		}
	}
}

func comparePagedFlat(t *testing.T, cfg Config, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pl, fl := &logPort{}, &logPort{}
	c, f := New(cfg, pl), newFlat(cfg, fl)
	window := uint32(4 * cfg.Size)
	base := rng.Uint32() &^ (window - 1)
	now := int64(0)
	for i := 0; i < 20000; i++ {
		addr := base + rng.Uint32()%window
		if rng.Intn(8) == 0 {
			addr = rng.Uint32()
		}
		write := rng.Intn(3) == 0
		if rng.Intn(16) == 0 {
			now -= int64(rng.Intn(50))
		} else {
			now += int64(rng.Intn(4))
		}
		if got, want := c.Access(now, addr, write), f.Access(now, addr, write); got != want {
			t.Fatalf("seed %d access %d: Access(%d, %#x, %v) = %d, flat model %d", seed, i, now, addr, write, got, want)
		}
		probe := base + rng.Uint32()%window
		if got, want := c.Contains(probe), f.Contains(probe); got != want {
			t.Fatalf("seed %d access %d: Contains(%#x) = %v, flat model %v", seed, i, probe, got, want)
		}
		if c.Stats != f.stats {
			t.Fatalf("seed %d access %d: stats %+v, flat model %+v", seed, i, c.Stats, f.stats)
		}
		if rng.Intn(5000) == 0 {
			c.Flush()
			f.Flush()
		}
		if i%2503 == 0 {
			st := c.State()
			if !reflect.DeepEqual(st, f.State()) {
				t.Fatalf("seed %d access %d: State differs from the flat model's", seed, i)
			}
			checkRoundTrip(t, cfg, &st)
		}
	}
	if !reflect.DeepEqual(pl.log, fl.log) {
		t.Fatalf("seed %d: lower-level traffic differs from the flat model's", seed)
	}
}

// checkRoundTrip restores st into a fresh cache: State must read back
// st, and exactly the pages holding a non-zero way are allocated.
func checkRoundTrip(t *testing.T, cfg Config, st *State) {
	t.Helper()
	r := New(cfg, nil)
	if err := r.SetState(st); err != nil {
		t.Fatal(err)
	}
	if back := r.State(); !reflect.DeepEqual(back, *st) {
		t.Fatal("State -> SetState -> State does not round-trip")
	}
	for i, p := range r.pages {
		touched := false
		for _, w := range st.Ways[i*r.pageWays : (i+1)*r.pageWays] {
			touched = touched || w != WayState{}
		}
		if (p != nil) != touched {
			t.Fatalf("page %d allocated = %v after SetState, holds a non-zero way = %v", i, p != nil, touched)
		}
	}
}

// TestUntouchedPagesStayUnallocated checks that hit probes, Contains
// and misses to one set allocate only that set's page, that a restore
// keeps the others unallocated, and that Flush drops every page.
func TestUntouchedPagesStayUnallocated(t *testing.T) {
	c := New(Config{Name: "L2", Size: 4 << 20, LineSize: 64, Assoc: 8, Latency: 12}, &DRAM{Latency: 100})
	allocated := func(c *Cache) (n int) {
		for _, p := range c.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	if n := len(c.pages); n != 128 {
		t.Fatalf("4 MiB L2 has %d pages, want 128", n)
	}
	for a := uint32(0); a < 64<<10; a += 4 {
		c.Contains(a + 1<<20)
	}
	if n := allocated(c); n != 0 {
		t.Fatalf("Contains allocated %d pages", n)
	}
	for a := uint32(0); a < 4<<10; a += 4 {
		c.Access(int64(a), a, a%64 == 0)
	}
	if n := allocated(c); n != 1 {
		t.Fatalf("a 4 KiB stream allocated %d pages, want 1", n)
	}
	st := c.State()
	r := New(c.Config(), nil)
	if err := r.SetState(&st); err != nil {
		t.Fatal(err)
	}
	if n := allocated(r); n != 1 {
		t.Fatalf("restore allocated %d pages, want 1", n)
	}
	c.Flush()
	if n := allocated(c); n != 0 || c.Contains(0) {
		t.Fatalf("Flush left %d pages allocated", n)
	}
}
