package memsim

import "math/bits"

// LineSim is the two-level hit/miss probe kernel: live simulation
// (Hierarchy) probes every access through it, and the access-stream
// replay path drives it in batches (ProbeAccesses). It holds only the
// state that is platform-dependent: the cache tags, which level served
// each line probe, and the pipelined-word count implied by the
// configuration's line size. Everything else a cost vector needs (word
// counts, ALU cycles, peak footprint) is platform-invariant; CyclesFor
// is the closed form that turns the two into cycles.
type LineSim struct {
	L1Hits    uint64
	L2Hits    uint64
	DRAMFills uint64

	l1, l2    *cache
	lineBytes uint32
	shift     uint32
	linePow2  bool
	// [lastFirst, lastLine] is the line span of the most recent probed
	// access, tracked only while it cannot wrap the L1 set space: every
	// line in it is resident in L1 and MRU in its own set, so a
	// subsequent access entirely inside the span is all L1 hits with no
	// LRU state change — the skip window of ProbeAccesses.
	lastFirst uint32
	lastLine  uint32
	pipelined uint64
}

// noLine is the lastLine sentinel; unreachable as a real line index for
// the line sizes (>= 2 bytes) the simulator models.
const noLine = ^uint32(0)

// NewLineSim builds the hit/miss simulator for cfg's cache geometries.
func NewLineSim(cfg Config) *LineSim {
	lb := effectiveLine(cfg)
	return &LineSim{
		l1:        newCache(cfg.L1),
		l2:        newCache(cfg.L2),
		lineBytes: lb,
		shift:     uint32(bits.TrailingZeros32(lb)),
		linePow2:  lb&(lb-1) == 0,
		lastFirst: noLine,
		lastLine:  noLine,
	}
}

// Reset returns the simulator to its just-constructed state for cfg —
// cold caches, zero counters — reusing the tag arrays, and reports
// whether it could: a false return means cfg implies different cache
// geometry and the caller must build a fresh LineSim. Reset is what lets
// the replay hot path recycle simulators from a pool instead of
// allocating tag arrays per replay.
func (s *LineSim) Reset(cfg Config) bool {
	if effectiveLine(cfg) != s.lineBytes || !s.l1.sameGeometry(cfg.L1) || !s.l2.sameGeometry(cfg.L2) {
		return false
	}
	for i := range s.l1.tags {
		s.l1.tags[i] = invalidTag
	}
	for i := range s.l2.tags {
		s.l2.tags[i] = invalidTag
	}
	s.L1Hits, s.L2Hits, s.DRAMFills = 0, 0, 0
	s.lastFirst, s.lastLine = noLine, noLine
	s.pipelined = 0
	return true
}

// lineSpan returns the first and last cache-line index an access to
// [addr, addr+size) touches under this configuration's line size.
func (s *LineSim) lineSpan(addr, size uint32) (uint32, uint32) {
	if s.linePow2 {
		return addr >> s.shift, (addr + size - 1) >> s.shift
	}
	return addr / s.lineBytes, (addr + size - 1) / s.lineBytes
}

// probeLine walks the hierarchy for one cache line (write-allocate,
// inclusive fill on miss).
func (s *LineSim) probeLine(line uint32) {
	if s.l1.probe(line) {
		s.L1Hits++
		return
	}
	s.probeL2Fill(line)
}

// setWindow records first..last as the skip window after probing that
// span, or clears the window when the span can wrap the L1 set space
// (two of its lines could then share a set, so not every line is MRU).
func (s *LineSim) setWindow(first, last uint32) {
	if last-first < s.l1.nsets {
		s.lastFirst, s.lastLine = first, last
	} else {
		s.lastFirst, s.lastLine = noLine, noLine
	}
}

// probeSpan probes the lines first..last (first <= last) of one access:
// the single-access form of ProbeAccesses that live simulation
// (Hierarchy) drives, with the same shortcuts — the skip window, the
// direct 2-way L1 path, probeL2Fill below the first level.
func (s *LineSim) probeSpan(first, last uint32) {
	if first >= s.lastFirst && last <= s.lastLine {
		s.L1Hits += uint64(last - first + 1) // inside the skip window
		return
	}
	s.setWindow(first, last)
	l1 := s.l1
	if !l1.pow2 || l1.assoc != 2 {
		for line := first; ; line++ {
			s.probeLine(line)
			if line == last {
				return
			}
		}
	}
	tags, mask := l1.tags, l1.mask
	for line := first; ; line++ {
		base := (line & mask) << 1
		if tags[base] == line {
			s.L1Hits++ // MRU way: no reorder needed
		} else if tags[base+1] == line {
			tags[base+1] = tags[base]
			tags[base] = line
			s.L1Hits++
		} else {
			s.probeL2Fill(line)
			tags[base+1] = tags[base]
			tags[base] = line
		}
		if line == last {
			return
		}
	}
}

// ProbeAccesses simulates a batch of accesses (addrs[i] with sizes[i])
// in order: the hot loop of the replayer, kept inside memsim — next to
// the canonical cache model it specializes — so the probe walk reads the
// tag arrays directly with no per-line calls. Two exactness-preserving
// shortcuts carry most probes: an access entirely inside the most
// recently probed line is a guaranteed L1 hit with no LRU state change
// (the line is resident and already MRU), and an access whose line is at
// the MRU position of its set needs no reordering. The specialized walk
// covers a 2-way L1 with power-of-two line size and set count (the
// default platform); any other geometry probes access by access through
// probeSpan. The replay-equivalence property tests pin both paths to
// the live hierarchy bit-for-bit. Pipelined-word counts accumulate per
// the configuration's line size (Pipelined).
func (s *LineSim) ProbeAccesses(addrs, sizes []uint32) {
	if len(addrs) != len(sizes) {
		panic("memsim: ProbeAccesses length mismatch")
	}
	if s.linePow2 && s.l1.pow2 && s.l1.assoc == 2 {
		s.probeAccessesL1x2(addrs, sizes)
		return
	}
	s.probeAccessesGeneric(addrs, sizes)
}

// probeAccessesL1x2 is ProbeAccesses for the dominant 2-way L1 geometry:
// the set is two directly indexed tags, no slices, no way loop.
func (s *LineSim) probeAccessesL1x2(addrs, sizes []uint32) {
	var (
		shift               = s.shift
		lastFirst, lastLine = s.lastFirst, s.lastLine
		l1Tags              = s.l1.tags
		l1Mask              = s.l1.mask
		l1Sets              = s.l1.nsets
		l1Hits              uint64
		pipelined           uint64
	)
	for i, addr := range addrs {
		size := sizes[i]
		if size == 0 {
			continue
		}
		first := addr >> shift
		last := (addr + size - 1) >> shift
		if words, lines := uint64((size+3)>>2), uint64(last-first+1); words > lines {
			pipelined += words - lines
		}
		if last < first {
			continue // addr+size wraps the 32-bit space: the hierarchy probes no lines
		}
		if first >= lastFirst && last <= lastLine {
			l1Hits += uint64(last - first + 1) // inside the skip window
			continue
		}
		if last-first < l1Sets {
			lastFirst, lastLine = first, last
		} else {
			lastFirst, lastLine = noLine, noLine
		}
		for line := first; ; line++ {
			base := (line & l1Mask) << 1
			if l1Tags[base] == line {
				l1Hits++ // MRU way: no reorder needed
			} else if l1Tags[base+1] == line {
				l1Tags[base+1] = l1Tags[base]
				l1Tags[base] = line
				l1Hits++
			} else {
				s.probeL2Fill(line)
				l1Tags[base+1] = l1Tags[base]
				l1Tags[base] = line
			}
			if line == last {
				break
			}
		}
	}
	s.lastFirst, s.lastLine = lastFirst, lastLine
	s.L1Hits += l1Hits
	s.pipelined += pipelined
}

// probeL2Fill resolves an L1 miss against the second level (probe, LRU
// update, fill on miss: write-allocate, inclusive). The caller performs
// the L1 fill.
func (s *LineSim) probeL2Fill(line uint32) {
	if s.l2.probe(line) {
		s.L2Hits++
	} else {
		s.DRAMFills++
	}
}

// probeAccessesGeneric is ProbeAccesses for every other geometry,
// access by access through probeSpan.
func (s *LineSim) probeAccessesGeneric(addrs, sizes []uint32) {
	for i, addr := range addrs {
		size := sizes[i]
		if size == 0 {
			continue
		}
		first, last := s.lineSpan(addr, size)
		if words, lines := uint64((size+3)/4), uint64(last-first+1); words > lines {
			s.pipelined += words - lines
		}
		if last >= first { // addr+size wrapping the 32-bit space probes no lines
			s.probeSpan(first, last)
		}
	}
}

// Probes returns the total line probes simulated so far.
func (s *LineSim) Probes() uint64 { return s.L1Hits + s.L2Hits + s.DRAMFills }

// Pipelined returns the accumulated pipelined extra words implied by the
// configuration's line size over all ProbeAccesses batches.
func (s *LineSim) Pipelined() uint64 { return s.pipelined }

// CyclesFor returns the execution cycles implied by the event counts plus
// the pipelined extra words under this configuration: the closed form
// both Hierarchy.Cycles and the replayer derive exact cycle totals with
// from a LineSim's probe outcomes.
func (cfg Config) CyclesFor(c Counts, pipelinedWords uint64) uint64 {
	return c.L1Hits*cfg.L1HitCycles +
		c.L2Hits*cfg.L2HitCycles +
		c.DRAMFills*cfg.DRAMCycles +
		c.OpCycles +
		pipelinedWords*cfg.PipelinedWord
}

// cache is one set-associative LRU cache level tracked at line
// granularity. Tags live in one flat array with a fixed stride of assoc
// entries per set, most-recently-used first, empty ways holding a
// sentinel; the contiguous layout keeps the whole simulated tag store in
// a few host cache lines per set, and with the small associativities
// used here a linear scan beats fancier structures.
type cache struct {
	tags  []uint32 // nsets*assoc entries, MRU first within each set
	assoc uint32
	nsets uint32
	mask  uint32 // set-index mask when the set count is a power of two
	pow2  bool
}

// invalidTag marks an empty way. Real line indices stay below it for
// every line size >= 2 bytes of the 32-bit simulated address space.
const invalidTag = ^uint32(0)

func newCache(g CacheGeometry) *cache {
	sets, assoc := effectiveGeometry(g)
	c := &cache{
		tags:  make([]uint32, sets*assoc),
		assoc: assoc,
		nsets: sets,
		mask:  sets - 1,
		pow2:  sets&(sets-1) == 0,
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	return c
}

// sameGeometry reports whether the cache was built from a geometry
// equivalent to g (same effective set count and associativity).
func (c *cache) sameGeometry(g CacheGeometry) bool {
	sets, assoc := effectiveGeometry(g)
	return c.nsets == sets && c.assoc == assoc
}

// probe looks line up in one pass over its set and reports a hit. A hit
// moves the line to the MRU way; a miss installs it there, evicting the
// LRU way. The MRU way is checked first: repeated probes of the hot line
// (adjacent words of a record, pointer-then-payload pairs) are the
// common case and need no reordering.
func (c *cache) probe(line uint32) bool {
	var set uint32
	if c.pow2 {
		set = line & c.mask
	} else {
		set = line % c.nsets
	}
	tags := c.tags[set*c.assoc : (set+1)*c.assoc]
	w := 0
	for w < len(tags) && tags[w] != line {
		w++
	}
	if w == 0 {
		return true
	}
	hit := w < len(tags)
	if !hit {
		w = len(tags) - 1
	}
	copy(tags[1:w+1], tags[:w])
	tags[0] = line
	return hit
}
