// Package vheap implements a virtual heap: a deterministic dynamic-memory
// allocator over a simulated 32-bit address space.
//
// The paper's metrics (peak memory footprint, and the addresses that drive
// the cache/energy simulation) depend on explicit allocation behaviour that
// Go's garbage-collected runtime hides. Every dynamic data type in
// internal/ddt therefore allocates its headers, nodes and chunks from a
// Heap: allocation returns a virtual address used for the simulated memory
// accesses, and the Heap accounts footprint exactly — payload bytes,
// alignment padding, and a fixed per-block allocator header, matching the
// overhead model of the embedded free-list allocators the paper assumes.
//
// Placement models a long-running fragmented heap, which is the regime the
// paper's trade-offs live in: each size class carves banks out of the
// address space and assigns slots within a bank in a deterministic
// scattered order. Two consecutively allocated list nodes therefore do NOT
// sit on the same cache line the way a naive bump allocator would place
// them — pointer-chasing structures pay their real locality cost, while a
// dynamic array's records stay contiguous inside its single block. Freed
// slots are reused LIFO within their size class, the common embedded
// free-list policy.
//
// # Arenas
//
// A Heap can be partitioned into named Arenas (NewArena): disjoint
// 256 MiB address regions, each with its own bump pointer and its own
// size classes under the same placement policy. A block allocated from an
// arena can never influence the addresses another arena hands out, which
// is the independence property compositional capture (internal/astream)
// rests on: one container role's addresses depend only on that role's own
// allocation history, never on which DDT implements a different role.
// Footprint accounting stays global — LiveBytes/PeakLiveBytes sum over
// all arenas, so the paper's footprint metric is unchanged by
// partitioning — while each Arena additionally meters its own live bytes
// for per-role segment accounting. A heap with no named arenas behaves
// exactly as before.
package vheap

import (
	"fmt"
	"sort"
)

const (
	// HeaderBytes is the bookkeeping overhead the allocator charges per
	// block, matching a typical 32-bit free-list allocator header
	// (size word + status/link word).
	HeaderBytes = 8

	// Alignment is the payload alignment; block payload sizes are rounded
	// up to a multiple of this.
	Alignment = 8

	// baseAddr is the virtual address of the first bank. Nonzero so that
	// address 0 can mean "nil pointer" in the simulated layout.
	baseAddr = 0x1000_0000

	// arenaShift/arenaSpan size the address region of one arena: 256 MiB,
	// enough for thousands of banks. Region i covers
	// [baseAddr + i*arenaSpan, baseAddr + (i+1)*arenaSpan); region 0 is
	// the heap's default space, regions 1.. belong to named arenas, and
	// the owning arena of any address is recovered by shifting — no maps
	// on the free path.
	arenaShift = 28
	arenaSpan  = 1 << arenaShift

	// arenaStagger offsets each arena's first bank within its region:
	// region i starts allocating at baseAddr + i*arenaSpan + i*arenaStagger.
	// With power-of-two regions alone, every arena's hot head would share
	// the low address bits — and therefore the same cache sets — so
	// concurrently-live roles would fight over a handful of sets however
	// large the cache, a pure artifact of the aligned layout. A real
	// linker or allocator places per-module buffers at essentially
	// arbitrary offsets; the stagger models that. 6464 is an odd multiple
	// of both 32- and 64-byte lines, so the per-arena set offsets stay
	// distinct modulo any power-of-two set span.
	arenaStagger = 6464

	// maxArenas bounds the named arenas a 32-bit space can hold beside
	// the default region.
	maxArenas = 13
)

// Policy selects the placement behaviour of a Heap — the axis the
// companion dynamic-memory-management exploration of the paper's research
// group tunes. The default models a long-running fragmented heap; turning
// Scatter off yields the sequential placement of a freshly booted bump
// heap, which flatters pointer-chasing structures (the ablation
// benchmarks quantify by how much).
type Policy struct {
	// BankBytes is the target address span of one size-class bank; slots
	// scatter across it. A span several times the L1 capacity makes node
	// scattering visible to the cache model.
	BankBytes uint32
	// MaxBankSlots caps the slots carved from one bank.
	MaxBankSlots uint32
	// Scatter selects permuted (true) or sequential (false) slot order
	// within a bank.
	Scatter bool
}

// DefaultPolicy is the fragmented-heap model used across the
// reproduction.
func DefaultPolicy() Policy {
	return Policy{BankBytes: 64 << 10, MaxBankSlots: 256, Scatter: true}
}

// Heap is a deterministic virtual-memory allocator. The zero value is not
// usable; call New or NewWithPolicy.
type Heap struct {
	policy   Policy
	def      Arena             // region 0: the default (role-less) space
	arenas   []*Arena          // named arenas, regions 1..len(arenas)
	blocks   map[uint32]uint32 // live payload addr -> rounded payload size
	liveByte uint64            // live bytes incl. header + padding, all arenas
	peakLive uint64            // max of liveByte over time
	allocs   uint64
	frees    uint64

	// Whole-heap segment metering (BeginSegment/SegmentStats), the
	// counterpart of Arena's for a capture that spans every arena.
	segStart uint64
	segMax   uint64
}

// sizeClass allocates fixed-size slots from scattered bank positions.
type sizeClass struct {
	stride   uint32   // slot bytes: header + rounded payload
	slots    uint32   // slots per bank (power of two)
	bankBase uint32   // current bank, 0 when none
	bankUsed uint32   // slots handed out of the current bank
	banks    int      // banks reserved so far
	live     int      // live blocks of this class
	free     []uint32 // freed payload addrs, LIFO
}

// Arena is one address region of a Heap: its own bump pointer and size
// classes, so its placement depends only on its own allocation history.
// The Heap's default space is itself an Arena (region 0); named arenas
// come from NewArena. An Arena is not safe for concurrent use, matching
// the Heap it belongs to.
type Arena struct {
	h       *Heap
	name    string
	base    uint32
	limit   uint64 // one past the last usable address
	next    uint32 // next unreserved address (bank granularity)
	classes map[uint32]*sizeClass

	live uint64 // this arena's live bytes incl. header + padding
	peak uint64 // high-water mark of live

	// Segment metering for compositional capture: BeginSegment snapshots
	// live, allocations keep segMax current, SegmentStats reports the
	// segment's footprint deltas.
	segStart uint64
	segMax   uint64
}

// New returns an empty heap with the default fragmented-heap policy.
func New() *Heap {
	return NewWithPolicy(DefaultPolicy())
}

// NewWithPolicy returns an empty heap with an explicit placement policy.
// Zero policy fields fall back to their defaults.
func NewWithPolicy(p Policy) *Heap {
	def := DefaultPolicy()
	if p.BankBytes == 0 {
		p.BankBytes = def.BankBytes
	}
	if p.MaxBankSlots == 0 {
		p.MaxBankSlots = def.MaxBankSlots
	}
	h := &Heap{
		policy: p,
		blocks: make(map[uint32]uint32),
	}
	h.def = Arena{
		h:    h,
		base: baseAddr,
		// Unbounded until the space is partitioned — but stop one byte
		// short of 2^32 so an exact-fit bank carve can never wrap the
		// 32-bit bump pointer back to 0 (the pre-arena guard's bound).
		limit:   1<<32 - 1,
		next:    baseAddr,
		classes: make(map[uint32]*sizeClass),
	}
	return h
}

// PolicyInUse returns the heap's placement policy.
func (h *Heap) PolicyInUse() Policy { return h.policy }

// NewArena reserves the next 256 MiB address region as a named arena.
// Creating the first arena caps the default space at region 0 (a heap
// that has already bump-allocated past it cannot be partitioned). Arena
// creation order is part of the heap's deterministic behaviour: callers
// that rely on address reproducibility must create arenas in a fixed
// order before allocating from them.
func (h *Heap) NewArena(name string) *Arena {
	idx := len(h.arenas) + 1
	if idx > maxArenas {
		panic(fmt.Sprintf("vheap: too many arenas (max %d)", maxArenas))
	}
	base := uint32(baseAddr + idx*arenaSpan + idx*arenaStagger)
	if h.def.next > baseAddr+arenaSpan {
		panic("vheap: cannot partition a heap whose default space has grown past region 0")
	}
	h.def.limit = baseAddr + arenaSpan
	a := &Arena{
		h:       h,
		name:    name,
		base:    base,
		limit:   uint64(baseAddr) + uint64(idx+1)*arenaSpan,
		next:    base,
		classes: make(map[uint32]*sizeClass),
	}
	h.arenas = append(h.arenas, a)
	return a
}

// DefaultArena returns the heap's default space as an Arena, for callers
// that meter role-less allocations uniformly with named arenas.
func (h *Heap) DefaultArena() *Arena { return &h.def }

// Arenas returns the named arenas in creation order.
func (h *Heap) Arenas() []*Arena { return h.arenas }

// arenaOf returns the arena owning addr. Addresses are region-tagged by
// construction, so ownership is a shift.
func (h *Heap) arenaOf(addr uint32) *Arena {
	if len(h.arenas) == 0 {
		return &h.def
	}
	idx := int((addr - baseAddr) >> arenaShift)
	if idx == 0 {
		return &h.def
	}
	if idx-1 < len(h.arenas) {
		return h.arenas[idx-1]
	}
	panic(fmt.Sprintf("vheap: address %#x outside every arena", addr))
}

// round returns size rounded up to the allocator alignment. Zero-byte
// requests still consume one aligned unit, as in real allocators.
func round(size uint32) uint32 {
	if size == 0 {
		size = 1
	}
	return (size + Alignment - 1) &^ (Alignment - 1)
}

// class returns (creating on demand) the arena's size class for rounded
// payload size rs.
func (a *Arena) class(rs uint32) *sizeClass {
	if c, ok := a.classes[rs]; ok {
		return c
	}
	stride := rs + HeaderBytes
	slots := uint32(1)
	for slots*stride < a.h.policy.BankBytes && slots < a.h.policy.MaxBankSlots {
		slots *= 2
	}
	if slots < 8 {
		slots = 8
	}
	c := &sizeClass{stride: stride, slots: slots}
	a.classes[rs] = c
	return c
}

// Name returns the arena's name ("" for the default space).
func (a *Arena) Name() string { return a.name }

// Alloc reserves a block of at least size bytes from the arena and
// returns its payload address. The returned address is Alignment-aligned
// and never 0.
func (a *Arena) Alloc(size uint32) uint32 {
	h := a.h
	rs := round(size)
	c := a.class(rs)
	var addr uint32
	switch {
	case len(c.free) > 0:
		addr = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	default:
		if c.bankBase == 0 || c.bankUsed == c.slots {
			span := c.slots * c.stride
			if uint64(a.next)+uint64(span) > a.limit {
				// A wrapped bump pointer would silently overlap other
				// regions; the arena's address space is exhausted.
				panic(fmt.Sprintf("vheap: virtual address space of arena %q exhausted", a.name))
			}
			c.bankBase = a.next
			c.bankUsed = 0
			c.banks++
			a.next += span
		}
		// Scattered slot order within the bank: multiplying by an odd
		// constant is a bijection modulo the power-of-two slot count, so
		// consecutive allocations land far apart but every slot is used
		// exactly once. Sequential order models a fresh bump heap.
		slot := c.bankUsed
		if h.policy.Scatter {
			slot = (c.bankUsed * 2654435761) & (c.slots - 1)
		}
		c.bankUsed++
		addr = c.bankBase + slot*c.stride + HeaderBytes
	}
	h.blocks[addr] = rs
	c.live++
	a.live += uint64(rs) + HeaderBytes
	if a.live > a.peak {
		a.peak = a.live
	}
	if a.live > a.segMax {
		a.segMax = a.live
	}
	h.liveByte += uint64(rs) + HeaderBytes
	if h.liveByte > h.peakLive {
		h.peakLive = h.liveByte
	}
	if h.liveByte > h.segMax {
		h.segMax = h.liveByte
	}
	h.allocs++
	return addr
}

// LiveBytes returns the arena's live bytes (header + padding included).
func (a *Arena) LiveBytes() uint64 { return a.live }

// PeakLiveBytes returns the arena's own footprint high-water mark.
func (a *Arena) PeakLiveBytes() uint64 { return a.peak }

// Extent returns the address span the arena has reserved for banks.
func (a *Arena) Extent() uint64 { return uint64(a.next - a.base) }

// BeginSegment opens a footprint-metering segment: SegmentStats will
// report deltas relative to the arena's live bytes now. Compositional
// capture (internal/astream) brackets every container operation with
// BeginSegment/SegmentStats so a composed replay can reconstruct the
// global footprint peak exactly.
func (a *Arena) BeginSegment() {
	a.segStart = a.live
	a.segMax = a.live
}

// SegmentStats reports the current segment's footprint deltas: the
// high-water mark of the arena's live bytes since BeginSegment relative
// to the segment start (maxDelta >= 0), and the net change of live bytes
// over the segment (endDelta, signed).
func (a *Arena) SegmentStats() (maxDelta uint64, endDelta int64) {
	return a.segMax - a.segStart, int64(a.live) - int64(a.segStart)
}

// BeginSegment opens a footprint-metering segment over the whole heap
// (every arena): SegmentStats will report deltas relative to the heap's
// live bytes now. A whole-run capture (internal/astream) meters its
// single lane this way, so its footprint peak is exact under either
// address model.
func (h *Heap) BeginSegment() {
	h.segStart = h.liveByte
	h.segMax = h.liveByte
}

// SegmentStats reports the current whole-heap segment's footprint
// deltas, as Arena.SegmentStats does for one arena.
func (h *Heap) SegmentStats() (maxDelta uint64, endDelta int64) {
	return h.segMax - h.segStart, int64(h.liveByte) - int64(h.segStart)
}

// Alloc reserves a block of at least size bytes from the heap's default
// space and returns its payload address. The returned address is
// Alignment-aligned and never 0.
func (h *Heap) Alloc(size uint32) uint32 {
	return h.def.Alloc(size)
}

// Free releases the block at payload address addr, whichever arena owns
// it. It panics on a double free or an address that was never allocated —
// both indicate a bug in a DDT implementation and must fail loudly in
// tests.
func (h *Heap) Free(addr uint32) {
	rs, ok := h.blocks[addr]
	if !ok {
		panic(fmt.Sprintf("vheap: Free of unknown or already-freed address %#x", addr))
	}
	delete(h.blocks, addr)
	a := h.arenaOf(addr)
	c := a.class(rs)
	c.free = append(c.free, addr)
	c.live--
	a.live -= uint64(rs) + HeaderBytes
	h.liveByte -= uint64(rs) + HeaderBytes
	h.frees++
}

// SizeOf returns the rounded payload size of the live block at addr, and
// whether addr is live.
func (h *Heap) SizeOf(addr uint32) (uint32, bool) {
	rs, ok := h.blocks[addr]
	return rs, ok
}

// LiveBytes returns the bytes currently allocated across all arenas,
// including per-block header overhead and alignment padding.
func (h *Heap) LiveBytes() uint64 { return h.liveByte }

// PeakLiveBytes returns the maximum of LiveBytes over the heap's lifetime.
// This is the "memory footprint" metric of the paper: the high-water mark
// of dynamic memory the application requires. Partitioning the heap into
// arenas does not change it — the sum of arena live bytes at any instant
// equals the shared-heap live bytes of the same allocation history.
func (h *Heap) PeakLiveBytes() uint64 { return h.peakLive }

// Extent returns the total virtual address space reserved by banks, which
// additionally exposes size-class fragmentation. With arenas it sums the
// per-arena extents (reserved regions are not charged until banks are
// carved from them).
func (h *Heap) Extent() uint64 {
	n := h.def.Extent()
	for _, a := range h.arenas {
		n += a.Extent()
	}
	return n
}

// LiveBlocks returns the number of currently live blocks.
func (h *Heap) LiveBlocks() int { return len(h.blocks) }

// Allocs returns the total number of Alloc calls.
func (h *Heap) Allocs() uint64 { return h.allocs }

// Frees returns the total number of Free calls.
func (h *Heap) Frees() uint64 { return h.frees }

// ClassStats describes one size class of the heap.
type ClassStats struct {
	SlotBytes  uint32 // stride: payload + header
	LiveBlocks int
	FreeBlocks int // blocks held on the class free list
	Banks      int // address-space banks reserved
}

// Stats is a point-in-time summary of the heap, exposing the
// fragmentation picture behind the footprint metric.
type Stats struct {
	LiveBytes     uint64
	PeakLiveBytes uint64
	Extent        uint64
	Allocs, Frees uint64
	Classes       []ClassStats // ascending by slot size, merged across arenas
}

// Stats snapshots the heap.
func (h *Heap) Stats() Stats {
	s := Stats{
		LiveBytes:     h.liveByte,
		PeakLiveBytes: h.peakLive,
		Extent:        h.Extent(),
		Allocs:        h.allocs,
		Frees:         h.frees,
	}
	merged := make(map[uint32]*ClassStats)
	addClasses := func(a *Arena) {
		for _, c := range a.classes {
			m := merged[c.stride]
			if m == nil {
				m = &ClassStats{SlotBytes: c.stride}
				merged[c.stride] = m
			}
			m.LiveBlocks += c.live
			m.FreeBlocks += len(c.free)
			m.Banks += c.banks
		}
	}
	addClasses(&h.def)
	for _, a := range h.arenas {
		addClasses(a)
	}
	for _, m := range merged {
		s.Classes = append(s.Classes, *m)
	}
	sort.Slice(s.Classes, func(i, j int) bool { return s.Classes[i].SlotBytes < s.Classes[j].SlotBytes })
	return s
}

// CheckInvariants verifies internal consistency: live accounting matches
// the block table (globally and per arena) and no live block overlaps
// another. It is O(n log n) and intended for tests. It returns a
// descriptive error on the first violation found.
func (h *Heap) CheckInvariants() error {
	var sum uint64
	type span struct{ lo, hi uint32 }
	spans := make([]span, 0, len(h.blocks))
	perArena := make(map[*Arena]uint64)
	for addr, rs := range h.blocks {
		sum += uint64(rs) + HeaderBytes
		if addr%Alignment != 0 {
			return fmt.Errorf("vheap: block %#x misaligned", addr)
		}
		a := h.arenaOf(addr)
		perArena[a] += uint64(rs) + HeaderBytes
		if uint64(addr)+uint64(rs) > a.limit {
			return fmt.Errorf("vheap: block %#x overruns arena %q", addr, a.name)
		}
		spans = append(spans, span{addr - HeaderBytes, addr + rs})
	}
	if sum != h.liveByte {
		return fmt.Errorf("vheap: live accounting %d != block-table sum %d", h.liveByte, sum)
	}
	if h.peakLive < h.liveByte {
		return fmt.Errorf("vheap: peak %d below live %d", h.peakLive, h.liveByte)
	}
	check := func(a *Arena) error {
		if perArena[a] != a.live {
			return fmt.Errorf("vheap: arena %q live accounting %d != block-table sum %d", a.name, a.live, perArena[a])
		}
		return nil
	}
	if err := check(&h.def); err != nil {
		return err
	}
	for _, a := range h.arenas {
		if err := check(a); err != nil {
			return err
		}
	}
	// Sort spans by start and check pairwise disjointness.
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j-1].lo > spans[j].lo; j-- {
			spans[j-1], spans[j] = spans[j], spans[j-1]
		}
	}
	for i := 1; i < len(spans); i++ {
		if spans[i-1].hi > spans[i].lo {
			return fmt.Errorf("vheap: blocks overlap: [%#x,%#x) and [%#x,%#x)",
				spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	return nil
}
