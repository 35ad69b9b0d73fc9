package memsim

import (
	"math/rand"
	"testing"
)

// refCache is the oracle's LRU cache level: one MRU-first slice per set,
// written for clarity rather than speed and sharing no code with the
// kernel's cache.
type refCache struct {
	sets  [][]uint32
	assoc int
}

func newRefCache(g CacheGeometry) *refCache {
	sets, assoc := g.Sets(), int(g.Assoc)
	if sets == 0 {
		sets = 1
	}
	if assoc == 0 {
		assoc = 1
	}
	return &refCache{sets: make([][]uint32, sets), assoc: assoc}
}

// access reports a hit and moves the line to the MRU position; a miss
// leaves the set untouched.
func (c *refCache) access(line uint32) bool {
	set := c.sets[line%uint32(len(c.sets))]
	for i, t := range set {
		if t == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return true
		}
	}
	return false
}

// fill installs line as MRU, dropping the LRU line of a full set.
func (c *refCache) fill(line uint32) {
	i := line % uint32(len(c.sets))
	set := append([]uint32{line}, c.sets[i]...)
	if len(set) > c.assoc {
		set = set[:c.assoc]
	}
	c.sets[i] = set
}

// refHierarchy is the reference oracle for Hierarchy: the straight
// per-line walk live simulation used before it probed through LineSim
// — divisions for the line span, one abort poll and one full cache
// walk per line, cycles accumulated incrementally.
type refHierarchy struct {
	cfg    Config
	l1, l2 *refCache
	counts Counts
	cycles uint64

	abortFn    func() bool
	abortEvery uint64
	sinceCheck uint64
}

func newRefHierarchy(cfg Config) *refHierarchy {
	return &refHierarchy{cfg: cfg, l1: newRefCache(cfg.L1), l2: newRefCache(cfg.L2)}
}

func (h *refHierarchy) op(n uint64) {
	h.counts.OpCycles += n
	h.cycles += n
}

func (h *refHierarchy) access(write bool, addr, size uint32) {
	if size == 0 {
		return
	}
	words := uint64((size + 3) / 4)
	if write {
		h.counts.WriteWords += words
	} else {
		h.counts.ReadWords += words
	}
	lineBytes := h.cfg.L1.LineBytes
	firstLine := addr / lineBytes
	lastLine := (addr + size - 1) / lineBytes
	lines := uint64(lastLine - firstLine + 1)
	for line := firstLine; line <= lastLine; line++ {
		h.probeLine(line)
	}
	if words > lines {
		h.cycles += (words - lines) * h.cfg.PipelinedWord
	}
}

func (h *refHierarchy) probeLine(line uint32) {
	if h.abortFn != nil {
		h.sinceCheck++
		if h.sinceCheck >= h.abortEvery {
			h.sinceCheck = 0
			if h.abortFn() {
				panic(&Aborted{Counts: h.counts, Cycles: h.cycles})
			}
		}
	}
	if h.l1.access(line) {
		h.counts.L1Hits++
		h.cycles += h.cfg.L1HitCycles
		return
	}
	if h.l2.access(line) {
		h.counts.L2Hits++
		h.cycles += h.cfg.L2HitCycles
		h.l1.fill(line)
		return
	}
	h.counts.DRAMFills++
	h.cycles += h.cfg.DRAMCycles
	h.l2.fill(line)
	h.l1.fill(line)
}

// scriptOp is one step of a random access script.
type scriptOp struct {
	write bool
	addr  uint32
	size  uint32
	ops   uint64
}

// randomScript draws accesses that exercise every kernel path: a hot
// region (hits, the skip window, LRU reorders), same-set strides
// (evictions, L2 hits), multi-line spans, zero sizes, and spans that
// wrap the 32-bit address space.
func randomScript(rng *rand.Rand, n int, lineBytes uint32) []scriptOp {
	out := make([]scriptOp, n)
	for i := range out {
		op := scriptOp{write: rng.Intn(3) == 0, ops: uint64(rng.Intn(4))}
		switch r := rng.Intn(20); {
		case r < 10:
			op.addr = 0x1000 + uint32(rng.Intn(4096))
		case r < 16:
			op.addr = uint32(rng.Intn(1 << 20))
		case r < 19:
			op.addr = uint32(rng.Intn(64)) * 8192
		default:
			op.addr = ^uint32(0) - uint32(rng.Intn(int(3*lineBytes)))
		}
		switch r := rng.Intn(10); {
		case r == 0:
			op.size = 0
		case r < 6:
			op.size = 1 + uint32(rng.Intn(8))
		default:
			op.size = 1 + uint32(rng.Intn(int(4*lineBytes)))
		}
		out[i] = op
	}
	return out
}

// oracleConfigs covers L1 associativity 1, 2 and 4, power-of-two and
// non-power-of-two set counts at both levels, and three line sizes.
func oracleConfigs() []Config {
	var out []Config
	for _, lb := range []uint32{16, 32, 64} {
		for _, a1 := range []uint32{1, 2, 4} {
			for _, sets1 := range []uint32{3, 16, 48} {
				for _, l2 := range []struct{ sets, assoc uint32 }{{64, 4}, {96, 8}, {5, 2}} {
					cfg := DefaultConfig()
					cfg.L1 = CacheGeometry{SizeBytes: lb * a1 * sets1, LineBytes: lb, Assoc: a1}
					cfg.L2 = CacheGeometry{SizeBytes: lb * l2.assoc * l2.sets, LineBytes: lb, Assoc: l2.assoc}
					out = append(out, cfg)
				}
			}
		}
	}
	return out
}

type snapshot struct {
	counts Counts
	cycles uint64
}

// drive runs script against one simulator through its access and op
// callbacks, recovering an abort; it reports whether the run aborted
// and the Aborted payload.
func drive(script []scriptOp, access func(bool, uint32, uint32), op func(uint64)) (ab *Aborted) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(*Aborted)
			if !ok {
				panic(r)
			}
			ab = a
		}
	}()
	for _, s := range script {
		op(s.ops)
		access(s.write, s.addr, s.size)
	}
	return nil
}

// TestHierarchyMatchesPerLineOracle pins the LineSim-backed Hierarchy
// to the per-line reference walk: identical Counts and Cycles at every
// abort poll, at the abort itself and at the end, for every geometry
// and abort cadence.
func TestHierarchyMatchesPerLineOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for ci, cfg := range oracleConfigs() {
		for _, every := range []uint64{0, 1, 2, 3, 7, 64} {
			script := randomScript(rng, 600, cfg.L1.LineBytes)
			// Stop at a random poll (or never, for a full-length check).
			stopAt := -1
			if every != 0 && rng.Intn(3) > 0 {
				stopAt = rng.Intn(400)
			}

			h := New(cfg)
			ref := newRefHierarchy(cfg)
			var got, want []snapshot
			if every != 0 {
				h.SetAbortCheck(every, func() bool {
					got = append(got, snapshot{h.Counts(), h.Cycles()})
					return len(got)-1 == stopAt
				})
				ref.abortFn, ref.abortEvery = func() bool {
					want = append(want, snapshot{ref.counts, ref.cycles})
					return len(want)-1 == stopAt
				}, every
			}
			gotAb := drive(script, func(w bool, a, s uint32) {
				if w {
					h.Write(a, s)
				} else {
					h.Read(a, s)
				}
			}, h.Op)
			wantAb := drive(script, ref.access, ref.op)

			if len(got) != len(want) {
				t.Fatalf("cfg %d every %d: %d polls, oracle %d", ci, every, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("cfg %d every %d: poll %d snapshot %+v, oracle %+v", ci, every, i, got[i], want[i])
				}
			}
			if (gotAb == nil) != (wantAb == nil) {
				t.Fatalf("cfg %d every %d: aborted %v, oracle %v", ci, every, gotAb != nil, wantAb != nil)
			}
			if gotAb != nil && *gotAb != *wantAb {
				t.Fatalf("cfg %d every %d: abort %+v, oracle %+v", ci, every, *gotAb, *wantAb)
			}
			if gotAb == nil && (h.Counts() != ref.counts || h.Cycles() != ref.cycles) {
				t.Fatalf("cfg %d every %d: end %+v/%d, oracle %+v/%d", ci, every, h.Counts(), h.Cycles(), ref.counts, ref.cycles)
			}
		}
	}
}
