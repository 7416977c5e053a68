// Package mem provides the byte-addressable, little-endian sparse memory
// used by every machine model in this repository, plus program-image
// loading helpers.
//
// Memory is organized as fixed-size pages allocated on first touch, so a
// 4 GiB address space costs only what the program actually uses. All
// machines in the repo (ISS, DiAG, OoO) share one Memory per run; timing
// simulators model latency separately through internal/cache. A Memory
// is not safe for concurrent use, not even for loads: see Memory.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

const (
	pageShift = 12
	// PageSize is the allocation granule of the sparse memory.
	PageSize = 1 << pageShift
	pageMask = PageSize - 1
)

// Memory is a sparse 32-bit physical address space. The zero value is
// ready to use.
//
// Accesses, loads included, update a two-entry page hint in front of
// the page map, so a Memory must be used from one goroutine at a time
// (Clone gives each goroutine its own). Pages are never deleted or
// replaced once allocated, which is what keeps the hint exact: any
// future code that deletes or replaces a page must clear it.
type Memory struct {
	pages map[uint32]*[PageSize]byte

	// newest and older cache the last two pages that page found in
	// the map or alloc created. Two entries, not one, because
	// kernels stream two arrays at once (x264 reads two frames
	// alternately, a copy loads one buffer and stores the other), and
	// one entry would miss on every access.
	newest, older pageHint

	// Code-write tracking for the predecode caches (internal/iss). The
	// watched range is the union of every MarkCode call; codeGen
	// increments whenever a store may have modified an instruction word,
	// so a cached decode is valid exactly while the generation it was
	// filled at still matches. With no range registered every store
	// bumps the generation — conservative but always correct, so
	// memories assembled by hand (tests, scratch interpreters) never
	// need to know the cache exists.
	codeLo, codeHi uint32 // watched range [codeLo, codeHi); codeHi == 0 = none
	codeGen        uint64
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint32]*[PageSize]byte)}
}

// page returns the page holding addr, or nil if no store ever touched
// it. The page hint answers repeat lookups of two pages without the
// map. page stays small enough to inline into the load and store paths,
// which is why a store's first touch is left to alloc. The hint is two
// named fields keyed by addr | pageMask, not an array keyed by page
// index + 1, because the fewer nodes keep LoadByte, which inlines page,
// within the inliner's budget too; make check verifies both.
func (m *Memory) page(addr uint32) *[PageSize]byte {
	key := addr | pageMask
	if m.newest.key == key {
		return m.newest.page
	}
	if m.older.key == key {
		return m.older.page
	}
	p := m.pages[addr>>pageShift]
	if p != nil {
		m.hint(key, p)
	}
	return p
}

// pageHint is one entry of a Memory's page hint. key is the address of
// the page's last byte (addr | pageMask for any addr in it), so the zero
// entry matches no page.
type pageHint struct {
	key  uint32
	page *[PageSize]byte
}

// hint makes p, whose hint key is key, the most recent hint entry.
func (m *Memory) hint(key uint32, p *[PageSize]byte) {
	m.older = m.newest
	m.newest = pageHint{key, p}
}

// alloc allocates the page holding addr, which page found absent: a
// store's first touch.
func (m *Memory) alloc(addr uint32) *[PageSize]byte {
	if m.pages == nil {
		m.pages = make(map[uint32]*[PageSize]byte)
	}
	p := new([PageSize]byte)
	m.pages[addr>>pageShift] = p
	m.hint(addr|pageMask, p)
	return p
}

// MarkCode registers [addr, addr+size) as holding instruction words.
// Stores outside every marked range no longer invalidate predecoded
// instructions; ranges accumulate as a union so a second loaded image
// can never unwatch the first one's text.
func (m *Memory) MarkCode(addr, size uint32) {
	if size == 0 {
		return
	}
	hi := addr + size
	if hi < addr {
		hi = ^uint32(0) // clamp a range wrapping past the top of the space
	}
	if m.codeHi == 0 {
		m.codeLo, m.codeHi = addr, hi
	} else {
		if addr < m.codeLo {
			m.codeLo = addr
		}
		if hi > m.codeHi {
			m.codeHi = hi
		}
	}
	m.codeGen++
}

// CodeGen returns the current code-write generation. A predecoded
// instruction filled at generation g is valid while CodeGen still
// returns g; any store that may have touched code advances it.
func (m *Memory) CodeGen() uint64 { return m.codeGen }

// noteStore records a store of n bytes at addr, advancing the code
// generation when the store may overlap instruction words.
func (m *Memory) noteStore(addr, n uint32) {
	if m.codeHi == 0 || (addr < m.codeHi && uint64(addr)+uint64(n) > uint64(m.codeLo)) {
		m.codeGen++
	}
}

// LoadByte returns the byte at addr (0 if never written).
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.page(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores one byte at addr.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.noteStore(addr, 1)
	p := m.page(addr)
	if p == nil {
		p = m.alloc(addr)
	}
	p[addr&pageMask] = v
}

// LoadWord returns the little-endian 32-bit word at addr. Unaligned reads
// are assembled byte-wise (RV32 allows them in our bare-metal model, but
// the machines report misalignment separately).
func (m *Memory) LoadWord(addr uint32) uint32 {
	if addr&3 == 0 && addr&pageMask <= PageSize-4 {
		if p := m.page(addr); p != nil {
			off := addr & pageMask
			return binary.LittleEndian.Uint32(p[off : off+4])
		}
		return 0
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.LoadByte(addr+i)) << (8 * i)
	}
	return v
}

// StoreWord stores a little-endian 32-bit word at addr.
func (m *Memory) StoreWord(addr uint32, v uint32) {
	if addr&3 == 0 && addr&pageMask <= PageSize-4 {
		m.noteStore(addr, 4)
		p := m.page(addr)
		if p == nil {
			p = m.alloc(addr)
		}
		off := addr & pageMask
		binary.LittleEndian.PutUint32(p[off:off+4], v)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.StoreByte(addr+i, byte(v>>(8*i)))
	}
}

// LoadHalf returns the little-endian 16-bit halfword at addr.
func (m *Memory) LoadHalf(addr uint32) uint16 {
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// StoreHalf stores a little-endian 16-bit halfword at addr.
func (m *Memory) StoreHalf(addr uint32, v uint16) {
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
}

// LoadFloat32 returns the IEEE 754 single at addr.
func (m *Memory) LoadFloat32(addr uint32) float32 {
	return math.Float32frombits(m.LoadWord(addr))
}

// StoreFloat32 stores an IEEE 754 single at addr.
func (m *Memory) StoreFloat32(addr uint32, v float32) {
	m.StoreWord(addr, math.Float32bits(v))
}

// LoadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) LoadBytes(addr uint32, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = m.LoadByte(addr + uint32(i))
	}
	return b
}

// StoreBytes stores b starting at addr.
func (m *Memory) StoreBytes(addr uint32, b []byte) {
	for i, v := range b {
		m.StoreByte(addr+uint32(i), v)
	}
}

// Checksum returns an order-independent-of-allocation FNV-1a hash over
// the given address range; used by tests to compare final memory states
// across different machine models.
func (m *Memory) Checksum(addr, n uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := uint32(0); i < n; i++ {
		h ^= uint64(m.LoadByte(addr + i))
		h *= prime64
	}
	return h
}

// Footprint returns the number of bytes of backing store allocated.
func (m *Memory) Footprint() int { return len(m.pages) * PageSize }

// Digest hashes the entire memory image into one word, independent of
// allocation order and allocation pattern: pages are visited in address
// order and all-zero pages hash like never-touched ones, so two
// memories with identical contents always digest identically. Used by
// the fault-injection layer to compare a run's final memory against the
// golden model's without enumerating address ranges.
func (m *Memory) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	idxs := make([]uint32, 0, len(m.pages))
	for idx, p := range m.pages {
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if !zero {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	h := uint64(offset64)
	for _, idx := range idxs {
		for i := 0; i < 4; i++ {
			h ^= uint64(idx >> (8 * i) & 0xFF)
			h *= prime64
		}
		for _, b := range m.pages[idx] {
			h ^= uint64(b)
			h *= prime64
		}
	}
	return h
}

// ApplyDiff replays onto m every byte at which mod differs from base,
// in ascending address order. base is a pre-run snapshot and mod a
// clone of it that has since been mutated; ApplyDiff commits mod's
// writes into m through StoreByte, so code-generation tracking sees
// them exactly like directly executed stores. The sharded multi-ring
// machines use this to merge per-shard memories back into the shared
// memory in fixed ring order: page indices are visited sorted and bytes
// ascending, so the merge is deterministic regardless of goroutine
// scheduling.
//
// A write of a value equal to base's byte is invisible to the diff;
// that is sound under the machines' documented requirement that
// parallel workloads have disjoint write sets (no two shards write the
// same location, so no shard's write can mask another's).
func (m *Memory) ApplyDiff(base, mod *Memory) {
	idxs := make([]uint32, 0, len(mod.pages))
	for idx := range mod.pages {
		idxs = append(idxs, idx)
	}
	for idx := range base.pages {
		if _, ok := mod.pages[idx]; !ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var zero [PageSize]byte
	for _, idx := range idxs {
		bp, mp := base.pages[idx], mod.pages[idx]
		if bp == nil {
			bp = &zero
		}
		if mp == nil {
			mp = &zero
		}
		if *bp == *mp {
			continue
		}
		addr := idx << pageShift
		for off := uint32(0); off < PageSize; off++ {
			if bp[off] != mp[off] {
				m.StoreByte(addr+off, mp[off])
			}
		}
	}
}

// Clone returns a deep copy; used to give each simulated machine an
// identical initial memory image.
func (m *Memory) Clone() *Memory {
	c := New()
	c.codeLo, c.codeHi, c.codeGen = m.codeLo, m.codeHi, m.codeGen
	for idx, p := range m.pages {
		np := new([PageSize]byte)
		*np = *p
		c.pages[idx] = np
	}
	return c
}

// Image is a loadable program: instruction words at Entry, plus arbitrary
// initialized data segments. It is the interchange format between the
// assembler / workload builders and the machines.
type Image struct {
	Entry    uint32    // initial PC
	TextAddr uint32    // base address of Text
	Text     []uint32  // instruction words
	Segments []Segment // initialized data
}

// Segment is one initialized data region of an Image.
type Segment struct {
	Addr uint32
	Data []byte
}

// TextEnd returns the first address past the text section.
func (img *Image) TextEnd() uint32 {
	return img.TextAddr + uint32(len(img.Text))*4
}

// Load writes the image into m and returns the entry PC. The text
// section is registered with MarkCode, so data stores never invalidate
// the machines' predecode caches while stores into text (self-modifying
// code, fault injection) always do.
func (img *Image) Load(m *Memory) (uint32, error) {
	if img.TextAddr&3 != 0 {
		return 0, fmt.Errorf("mem: text base 0x%x not word-aligned", img.TextAddr)
	}
	m.MarkCode(img.TextAddr, uint32(len(img.Text))*4)
	for i, w := range img.Text {
		m.StoreWord(img.TextAddr+uint32(i)*4, w)
	}
	for _, s := range img.Segments {
		m.StoreBytes(s.Addr, s.Data)
	}
	return img.Entry, nil
}
