package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	if m.LoadWord(0x1000) != 0 {
		t.Error("fresh memory should read 0")
	}
	m.StoreWord(0x1000, 42)
	if m.LoadWord(0x1000) != 42 {
		t.Error("write through zero value failed")
	}
}

func TestByteWordHalf(t *testing.T) {
	m := New()
	m.StoreWord(0x100, 0xDEADBEEF)
	if m.LoadByte(0x100) != 0xEF || m.LoadByte(0x103) != 0xDE {
		t.Error("little-endian byte layout wrong")
	}
	if m.LoadHalf(0x100) != 0xBEEF || m.LoadHalf(0x102) != 0xDEAD {
		t.Error("halfword read wrong")
	}
	m.StoreHalf(0x200, 0x1234)
	if m.LoadWord(0x200) != 0x1234 {
		t.Error("halfword write wrong")
	}
}

func TestUnalignedWord(t *testing.T) {
	m := New()
	m.StoreWord(0x101, 0xAABBCCDD)
	if got := m.LoadWord(0x101); got != 0xAABBCCDD {
		t.Errorf("unaligned round-trip = 0x%x", got)
	}
	if m.LoadByte(0x101) != 0xDD {
		t.Error("unaligned write low byte wrong")
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint32(PageSize - 2)
	m.StoreWord(addr, 0x11223344)
	if got := m.LoadWord(addr); got != 0x11223344 {
		t.Errorf("cross-page word = 0x%x", got)
	}
}

func TestFloat32(t *testing.T) {
	m := New()
	m.StoreFloat32(0x40, 3.5)
	if m.LoadFloat32(0x40) != 3.5 {
		t.Error("float32 round trip failed")
	}
	m.StoreFloat32(0x44, float32(math.NaN()))
	if !math.IsNaN(float64(m.LoadFloat32(0x44))) {
		t.Error("NaN round trip failed")
	}
}

func TestBytes(t *testing.T) {
	m := New()
	data := []byte{1, 2, 3, 4, 5}
	m.StoreBytes(0x300, data)
	got := m.LoadBytes(0x300, 5)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("LoadBytes[%d] = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestClone(t *testing.T) {
	m := New()
	m.StoreWord(0x500, 77)
	c := m.Clone()
	c.StoreWord(0x500, 88)
	if m.LoadWord(0x500) != 77 {
		t.Error("clone must not alias original")
	}
	if c.LoadWord(0x500) != 88 {
		t.Error("clone write lost")
	}
}

// Property: word write then read returns the same value at any address.
func TestWordRoundTripQuick(t *testing.T) {
	m := New()
	f := func(addr, v uint32) bool {
		m.StoreWord(addr, v)
		return m.LoadWord(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: byte writes don't disturb neighbours.
func TestByteIsolationQuick(t *testing.T) {
	f := func(addr uint32, v byte) bool {
		m := New()
		m.StoreByte(addr+1, 0xAA)
		m.StoreByte(addr, v)
		return m.LoadByte(addr) == v && m.LoadByte(addr+1) == 0xAA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestImageLoad(t *testing.T) {
	img := &Image{
		Entry:    0x1000,
		TextAddr: 0x1000,
		Text:     []uint32{0x00000013, 0x00100073},
		Segments: []Segment{{Addr: 0x8000, Data: []byte{9, 8, 7}}},
	}
	m := New()
	pc, err := img.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	if pc != 0x1000 {
		t.Errorf("entry = 0x%x", pc)
	}
	if m.LoadWord(0x1004) != 0x00100073 {
		t.Error("text not loaded")
	}
	if m.LoadByte(0x8001) != 8 {
		t.Error("segment not loaded")
	}
	if img.TextEnd() != 0x1008 {
		t.Errorf("TextEnd = 0x%x", img.TextEnd())
	}
}

func TestImageLoadMisaligned(t *testing.T) {
	img := &Image{TextAddr: 0x1002, Text: []uint32{0}}
	if _, err := img.Load(New()); err == nil {
		t.Error("misaligned text base should fail")
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	if m.Footprint() != 0 {
		t.Error("fresh memory should have zero footprint")
	}
	m.StoreByte(0, 1)
	m.StoreByte(1<<30, 1)
	if m.Footprint() != 2*PageSize {
		t.Errorf("footprint = %d, want %d", m.Footprint(), 2*PageSize)
	}
}
