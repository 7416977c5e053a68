package mem

import (
	"math/rand"
	"testing"
)

// refMem is the page hint's oracle: a flat byte map with no pages and
// no hint, read and written a byte at a time.
type refMem map[uint32]byte

func (r refMem) clone() refMem {
	c := make(refMem, len(r))
	for a, v := range r {
		c[a] = v
	}
	return c
}

// hinted pairs a Memory with the reference it must agree with.
type hinted struct {
	m   *Memory
	ref refMem
}

// hintPages are the page indices the hint test touches.
var hintPages = [...]uint32{0, 1, 2, 0x80, 0xFFFFF}

// touch stores one byte into every test page of h, first to last. The
// test derives each Memory while its source's hint is on the first
// page, so a hint the derived Memory inherited shows at once, before
// any access moves it.
func (h hinted) touch(rng *rand.Rand) {
	for _, p := range hintPages {
		a, v := p<<pageShift|uint32(rng.Intn(PageSize)), byte(rng.Intn(256))
		h.m.StoreByte(a, v)
		h.ref[a] = v
	}
}

// step applies one random load or store to h and fails on any load that
// disagrees with the reference. Addresses fall on a few pages, at both
// ends of the address space, so word and halfword accesses straddle
// pages and wrap, and consecutive accesses alternate between hitting
// and missing the hint.
func (h hinted) step(t *testing.T, rng *rand.Rand) {
	t.Helper()
	a := hintPages[rng.Intn(len(hintPages))]<<pageShift | uint32(rng.Intn(PageSize))
	if rng.Intn(4) == 0 {
		a |= pageMask &^ 1 // the last bytes of a page
	}
	n := [...]uint32{1, 2, 4}[rng.Intn(3)]
	if rng.Intn(2) == 0 {
		v := rng.Uint32()
		switch n {
		case 1:
			h.m.StoreByte(a, byte(v))
		case 2:
			h.m.StoreHalf(a, uint16(v))
		case 4:
			h.m.StoreWord(a, v)
		}
		for i := uint32(0); i < n; i++ {
			h.ref[a+i] = byte(v >> (8 * i))
		}
		return
	}
	var got uint32
	switch n {
	case 1:
		got = uint32(h.m.LoadByte(a))
	case 2:
		got = uint32(h.m.LoadHalf(a))
	case 4:
		got = h.m.LoadWord(a)
	}
	var want uint32
	for i := uint32(0); i < n; i++ {
		want |= uint32(h.ref[a+i]) << (8 * i)
	}
	if got != want {
		t.Fatalf("%d-byte load at %#x = %#x, want %#x", n, a, got, want)
	}
}

// check reads every byte the reference holds back through the memory.
func (h hinted) check(t *testing.T) {
	t.Helper()
	for a, v := range h.ref {
		if got := h.m.LoadByte(a); got != v {
			t.Fatalf("byte at %#x = %#x, want %#x", a, got, v)
		}
	}
}

// TestPageHintMatchesReference interleaves loads and stores on several
// Memories, each with its own page hint, and derives new Memories by
// Clone, NewFromState and ApplyDiff after their sources' hints point at
// touched pages. Every load must agree with a hint-free reference, and
// no write may reach another Memory's pages through a hint.
func TestPageHintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// run touches every page of its first Memory, the newly derived one,
	// then interleaves random accesses over all of them.
	run := func(ms ...hinted) {
		t.Helper()
		ms[0].touch(rng)
		for _, h := range ms {
			h.check(t)
		}
		for i := 0; i < 4000; i++ {
			ms[rng.Intn(len(ms))].step(t, rng)
		}
		for _, h := range ms {
			h.check(t)
		}
	}
	a := hinted{New(), refMem{}}
	b := hinted{&Memory{}, refMem{}} // the zero value starts without a map
	run(a, b)
	first := hintPages[0] << pageShift

	a.m.LoadByte(first)
	c := hinted{a.m.Clone(), a.ref.clone()}
	run(c, a, b)

	b.m.LoadByte(first)
	st := b.m.State()
	d := hinted{NewFromState(&st), b.ref.clone()}
	run(d, a, b, c)

	a.m.LoadByte(first)
	base := hinted{a.m.Clone(), a.ref.clone()}
	base.m.LoadByte(first)
	mod := hinted{base.m.Clone(), base.ref.clone()}
	run(mod, b)
	a.m.LoadByte(first) // the merge stores through a's hint
	a.m.ApplyDiff(base.m, mod.m)
	a.ref = mod.ref.clone()
	run(a, b, c, d, base, mod)
}
