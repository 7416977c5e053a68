package cache

import (
	"math/rand"
	"testing"
)

// TestIndexMatchesDivision pins index's shifts and masks to the
// division form they replace, over every geometry the machines build:
// direct-mapped, a single-set fully associative cache, 1, 2 and 4
// banks, and a 4 MiB L2.
func TestIndexMatchesDivision(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "L1I", Size: 32 << 10, LineSize: 64, Assoc: 1, Latency: 1},
		{Name: "memlanes", Size: 4 * 64, LineSize: 64, Assoc: 4, Latency: 1},
		{Name: "L1D-1", Size: 64 << 10, LineSize: 64, Assoc: 4, Latency: 2, Banks: 1},
		{Name: "L1D-2", Size: 64 << 10, LineSize: 64, Assoc: 4, Latency: 2, Banks: 2},
		{Name: "L1D-4", Size: 128 << 10, LineSize: 64, Assoc: 4, Latency: 2, Banks: 4},
		{Name: "L2", Size: 4 << 20, LineSize: 64, Assoc: 8, Latency: 12},
		{Name: "small-lines", Size: 1 << 10, LineSize: 4, Assoc: 2, Latency: 1, Banks: 8},
	} {
		c := New(cfg, nil)
		line, sets, banks := uint32(cfg.LineSize), c.setMask+1, uint32(c.cfg.Banks)
		rng := rand.New(rand.NewSource(1))
		addrs := []uint32{0, 1, line - 1, line, ^uint32(0), ^uint32(0) - line}
		for i := 0; i < 20000; i++ {
			addrs = append(addrs, rng.Uint32())
		}
		for _, a := range addrs {
			set, tag, bank := c.index(a)
			l := a / line
			if set != l%sets || tag != l/sets || bank != l%banks {
				t.Fatalf("%s: index(%#x) = (%d, %#x, %d), want (%d, %#x, %d)",
					cfg.Name, a, set, tag, bank, l%sets, l/sets, l%banks)
			}
		}
	}
}
