package ooo

import (
	"math/rand"
	"testing"

	"diag/internal/mem"
)

// scanWindow is the store window the index replaced, kept as the
// oracle: a ring of the last n stores, searched newest first.
type scanWindow struct {
	e          []lsqEntry
	head, size int
}

func (w *scanWindow) push(addr uint32, ready int64) {
	w.e[w.head] = lsqEntry{addr: addr &^ 3, size: 4, ready: ready}
	w.head = (w.head + 1) % len(w.e)
	if w.size < len(w.e) {
		w.size++
	}
}

func (w *scanWindow) forward(addr uint32) (int64, bool) {
	a := addr &^ 3
	n := len(w.e)
	for k := 1; k <= w.size; k++ {
		e := &w.e[(w.head-k+n)%n]
		if e.addr == a {
			return e.ready, true
		}
	}
	return 0, false
}

// freshCore builds core 0 of a machine over empty memory.
func freshCore(cfg Config) *Core { return buildMachine(cfg, mem.New(), 0).Core(0) }

// tinyConfig is a valid machine with a store window of lsq entries and
// caches and predictors shrunk so that building one is cheap.
func tinyConfig(lsq int) Config {
	cfg := Config{LSQSize: lsq, PredictorBits: 4, BTBBits: 4,
		L1ISize: 4 << 10, L1DSize: 4 << 10, L2Size: 64 << 10}
	cfg.setDefaults()
	return cfg
}

// FuzzStoreForward drives random pushStore/forward sequences through a
// core and the oracle scan, which must agree on every load. lsq picks a
// window of 1–80 stores, so long inputs wrap it many times. Each op is
// two bytes: the first selects a store (16/32), a load (15/32), or a
// State→SetState round trip into the other of two cores (1/32), whose
// index still holds its own stale entries; the second byte picks an
// address among 8 words sharing one index slot, times 4 neighbouring
// slots, at any byte offset. Inputs are cut at 512 ops so that one
// execution, and so the fuzzer's minimization, stays fast.
func FuzzStoreForward(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, lsq := range []uint8{0, 1, 7, 71, 79} {
		ops := make([]byte, 1024)
		rng.Read(ops)
		f.Add(lsq, ops)
	}
	f.Fuzz(func(t *testing.T, lsq uint8, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		cfg := tinyConfig(1 + int(lsq)%80)
		c, spare := freshCore(cfg), freshCore(cfg)
		oracle := &scanWindow{e: make([]lsqEntry, cfg.LSQSize)}
		stride := uint32(4 * len(c.storeIndex)) // same slot, next word
		var ready int64
		for i := 0; i+1 < len(ops); i += 2 {
			k := ops[i+1]
			addr := 0x10000 + uint32(k&7)*stride + uint32(k>>3&3)*4 + uint32(k>>5&3)
			switch op := ops[i] % 32; {
			case op < 16:
				ready++
				c.pushStore(addr, ready)
				oracle.push(addr, ready)
			case op < 31:
				got, gotOK := c.forward(addr)
				want, wantOK := oracle.forward(addr)
				if got != want || gotOK != wantOK {
					t.Fatalf("op %d: forward(%#x) = %d, %v; scan gives %d, %v", i/2, addr, got, gotOK, want, wantOK)
				}
			default:
				st := c.State()
				c, spare = spare, c
				if err := c.SetState(&st); err != nil {
					t.Fatalf("op %d: SetState: %v", i/2, err)
				}
			}
		}
	})
}
