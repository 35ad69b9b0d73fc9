package astream

import (
	"errors"
	"sync"

	"repro/internal/memsim"
)

// ErrPartial is returned when a partial (aborted-capture) sub-stream is
// asked to replay: the recorded prefix proves nothing about the full
// run, so replaying it across configurations would poison results.
var ErrPartial = errors.New("astream: stream is partial (aborted capture); refusing to replay")

// Cost is the outcome of replaying a stream against one platform
// configuration: exactly the Counts, cycle total and footprint peak a
// live execution of the same application run on that configuration would
// produce (the replay-equivalence property tests pin this bit-for-bit).
type Cost struct {
	Counts memsim.Counts
	Cycles uint64
	Peak   uint64 // footprint high-water mark, bytes
	// Aborted marks a guarded replay the guard stopped; Counts, Cycles
	// and Peak then hold the guard's lower-bound snapshot at the stop
	// (never more than the exact full-replay cost on any component).
	Aborted bool
}

// GuardFunc is polled during a guarded replay with a running lower
// bound on the replay's final cost; returning true stops the replay
// (the Cost comes back Aborted). The streaming composed replay polls
// the partial cost (with the exact footprint peak for a whole-run
// capture); the unpacked composed replay polls the tighter completion
// bound (exact final invariants plus remaining accesses taken as L1
// hits). Either way every component only grows from poll to poll and
// never exceeds the exact final cost, so the same dominance arguments
// that make live early abort sound apply unchanged. The poll cadence
// is one check per decoded batch — the same order of magnitude as the
// live simulation's probe-count cadence.
type GuardFunc func(Cost) bool

// costOf merges the platform-invariant counters with one LineSim's probe
// outcomes into the exact cost vector ingredients.
func costOf(cfg memsim.Config, ls *memsim.LineSim, inv memsim.Counts, peak uint64) Cost {
	inv.L1Hits = ls.L1Hits
	inv.L2Hits = ls.L2Hits
	inv.DRAMFills = ls.DRAMFills
	return Cost{Counts: inv, Cycles: cfg.CyclesFor(inv, ls.Pipelined()), Peak: peak}
}

// scratch is the reusable per-replay working set: the decode batch (the
// two 8 KiB struct-of-array halves), the probe simulators — per-config
// LineSims and all-geometry GeomSims — and the lane decoders of
// composed replays. Replays run steadily inside the exploration
// engine's worker pool — thousands per exploration — so this state is
// pooled rather than reallocated per call; a recycled kernel whose
// geometry (or geometry family) matches the request is Reset instead of
// rebuilt. The astream benchmarks assert the resulting steady-state
// allocation count.
type scratch struct {
	b       batch
	sims    []*memsim.LineSim
	geos    []*memsim.GeomSim
	ds      []decoder
	cursors []int
	one     [1]*memsim.LineSim // the lone LineSim of a single-configuration plan
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// simFor returns slot i's simulator, cold and configured for cfg —
// recycled when the geometry matches, freshly built otherwise.
func (s *scratch) simFor(i int, cfg memsim.Config) *memsim.LineSim {
	for len(s.sims) <= i {
		s.sims = append(s.sims, nil)
	}
	if ls := s.sims[i]; ls != nil && ls.Reset(cfg) {
		return ls
	}
	ls := memsim.NewLineSim(cfg)
	s.sims[i] = ls
	return ls
}

// geoFor returns an all-geometry kernel for the family in plan slot i,
// cold — recycled from anywhere in the scratch's kernel pool when a
// kernel of identical identity (family AND sample shift; the tag
// stores are sized for the shift's scaled set counts) is pooled (a
// worker alternating between the line-size families of a sweep must
// not rebuild tag stores per pass), freshly built otherwise. planFor
// only requests eligible same-line-size families, so construction
// cannot fail.
func (s *scratch) geoFor(i int, family []memsim.Config, sampleShift uint32) *memsim.GeomSim {
	for len(s.geos) <= i {
		s.geos = append(s.geos, nil)
	}
	for j := i; j < len(s.geos); j++ {
		if gs := s.geos[j]; gs != nil && gs.ResetSampled(family, sampleShift) {
			s.geos[i], s.geos[j] = gs, s.geos[i]
			return gs
		}
	}
	gs, err := memsim.NewGeomSimSampled(family, sampleShift)
	if err != nil {
		panic("astream: planFor built an invalid geometry family: " + err.Error())
	}
	// Keep the displaced kernel pooled (another family alternating with
	// this one on the same worker), within a small bound.
	if old := s.geos[i]; old != nil && len(s.geos) < 8 {
		s.geos = append(s.geos, old)
	}
	s.geos[i] = gs
	return gs
}

// decodersFor returns a lane-decoder slice of length n, reusing capacity.
func (s *scratch) decodersFor(n int) []decoder {
	if cap(s.ds) < n {
		s.ds = make([]decoder, n)
	}
	s.ds = s.ds[:n]
	return s.ds
}

// cursorsFor returns a zeroed per-lane segment-cursor slice of length n.
func (s *scratch) cursorsFor(n int) []int {
	if cap(s.cursors) < n {
		s.cursors = make([]int, n)
	}
	s.cursors = s.cursors[:n]
	for i := range s.cursors {
		s.cursors[i] = 0
	}
	return s.cursors
}

// costOfGeom is costOf for a configuration served by an all-geometry
// pass: the per-config probe outcome is derived arithmetically from the
// kernel's depth histograms instead of read off a dedicated LineSim.
func costOfGeom(cfg memsim.Config, gs *memsim.GeomSim, inv memsim.Counts, peak uint64) Cost {
	c, pipelined, ok := gs.CountsFor(cfg)
	if !ok {
		panic("astream: GeomSim pass does not cover its own family member")
	}
	inv.L1Hits = c.L1Hits
	inv.L2Hits = c.L2Hits
	inv.DRAMFills = c.DRAMFills
	return Cost{Counts: inv, Cycles: cfg.CyclesFor(inv, pipelined), Peak: peak}
}

// CostFromProfile derives one configuration's exact replay cost from a
// cached reuse profile alone — zero decode, zero probes. ok is false
// when the configuration is outside the profile's covered cross
// product; a covered cost is bit-identical to replaying the stream the
// profile was built from.
func CostFromProfile(p *memsim.ReuseProfile, cfg memsim.Config) (Cost, bool) {
	counts, pipelined, ok := p.CountsFor(cfg)
	if !ok {
		return Cost{}, false
	}
	return Cost{Counts: counts, Cycles: cfg.CyclesFor(counts, pipelined), Peak: p.Peak}, true
}

// multiPlan is how a multi-configuration replay partitions its targets:
// same-line-size geometry families collapse into one GeomSim pass each,
// and the leftovers (singleton families, non-power-of-two geometries)
// keep a dedicated LineSim. Every probe batch is walked once per geom
// plus once per leftover sim — not once per configuration.
type multiPlan struct {
	cfgs    []memsim.Config
	geoms   []*memsim.GeomSim
	geomIdx [][]int // geoms[k] serves cfgs[geomIdx[k][...]]
	sims    []*memsim.LineSim
	simIdx  []int // sims[j] serves cfgs[simIdx[j]]
}

// loneIdx is the simIdx of every single-configuration plan.
var loneIdx = [1]int{0}

// forceLineSim disables all-geometry routing (benchmark baseline only;
// see export_test.go).
var forceLineSim = false

// planFor partitions cfgs into the plan, recycling pooled kernels. The
// line-size grouping is the shared memsim.LineFamiliesOf, so the plan
// can never partition differently from the exploration layers. A family
// of one only takes the GeomSim path when the caller wants its reuse
// profile or a sampled pass (LineSim has no sampling mode); otherwise a
// plain LineSim is cheaper. Ineligible configurations always fall back
// to an exact LineSim, even under sampling — their costs simply come
// back exact, which only tightens the caller's interval.
func (sc *scratch) planFor(cfgs []memsim.Config, profiled bool, sampleShift uint32) multiPlan {
	if len(cfgs) == 1 && !profiled && sampleShift == 0 {
		// A lone exact configuration always gets a dedicated LineSim;
		// serving it from the scratch's own array keeps a per-job
		// replay allocation-free in steady state.
		sc.one[0] = sc.simFor(0, cfgs[0])
		return multiPlan{cfgs: cfgs, sims: sc.one[:], simIdx: loneIdx[:]}
	}
	p := multiPlan{cfgs: cfgs}
	for _, fam := range memsim.LineFamiliesOf(cfgs) {
		var idx []int
		for _, i := range fam.Indexes {
			if forceLineSim || !memsim.GeomEligible(cfgs[i]) {
				p.simIdx = append(p.simIdx, i)
			} else {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		if len(idx) < 2 && !profiled && sampleShift == 0 {
			p.simIdx = append(p.simIdx, idx...)
			continue
		}
		fcfgs := make([]memsim.Config, len(idx))
		for k, i := range idx {
			fcfgs[k] = cfgs[i]
		}
		p.geoms = append(p.geoms, sc.geoFor(len(p.geoms), fcfgs, sampleShift))
		p.geomIdx = append(p.geomIdx, idx)
	}
	for j, i := range p.simIdx {
		p.sims = append(p.sims, sc.simFor(j, cfgs[i]))
	}
	return p
}

// probe walks one access batch through every kernel of the plan.
func (p *multiPlan) probe(addrs, sizes []uint32) {
	for _, gs := range p.geoms {
		gs.ProbeAccesses(addrs, sizes)
	}
	for _, ls := range p.sims {
		ls.ProbeAccesses(addrs, sizes)
	}
}

// costs assembles the per-configuration cost vector of the finished
// pass, in the original configuration order.
func (p *multiPlan) costs(inv memsim.Counts, peak uint64) []Cost {
	out := make([]Cost, len(p.cfgs))
	p.costsInto(out, inv, peak)
	return out
}

// costsInto is costs writing into a caller-provided slice.
func (p *multiPlan) costsInto(out []Cost, inv memsim.Counts, peak uint64) {
	for k, gs := range p.geoms {
		for _, i := range p.geomIdx[k] {
			out[i] = costOfGeom(p.cfgs[i], gs, inv, peak)
		}
	}
	for j, i := range p.simIdx {
		out[i] = costOf(p.cfgs[i], p.sims[j], inv, peak)
	}
}

// profiles snapshots every geometry family's reuse profile, completed
// with the stream's platform-invariant aggregates so a profile-served
// cost later needs no stream at all.
func (p *multiPlan) profiles(inv memsim.Counts, peak uint64) []*memsim.ReuseProfile {
	out := make([]*memsim.ReuseProfile, 0, len(p.geoms))
	for _, gs := range p.geoms {
		pr := gs.Profile()
		pr.ReadWords = inv.ReadWords
		pr.WriteWords = inv.WriteWords
		pr.OpCycles = inv.OpCycles
		pr.Peak = peak
		out = append(out, pr)
	}
	return out
}
