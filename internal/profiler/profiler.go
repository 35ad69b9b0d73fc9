// Package profiler implements the profiling sub-step of the paper's
// application-level exploration (§3.1): "we attach to each candidate DDT of
// the network application a profile object and run the application for some
// typical input traces. The profiling reveals the dominant data structures
// of the application (i.e. the ones that are accessed the most)."
//
// A Probe is that profile object: the DDT library reports every simulated
// word access and operation of a container to its probe, and a Set ranks
// the candidate containers by access volume to select the dominant ones.
package profiler

import (
	"fmt"
	"sort"
	"strings"
)

// Probe accumulates the access profile of one candidate container (one
// "role" in an application, e.g. the rtentry store of Route).
type Probe struct {
	Role       string
	Ops        uint64 // container operations (Append, Get, ...)
	ReadWords  uint64 // simulated word loads issued by the container
	WriteWords uint64 // simulated word stores issued by the container
}

// AddRead records n word loads.
func (p *Probe) AddRead(n uint64) { p.ReadWords += n }

// AddWrite records n word stores.
func (p *Probe) AddWrite(n uint64) { p.WriteWords += n }

// AddOp records one container operation.
func (p *Probe) AddOp() { p.Ops++ }

// Accesses returns total word accesses attributed to the container.
func (p *Probe) Accesses() uint64 { return p.ReadWords + p.WriteWords }

// Set is the collection of probes for one profiling run.
type Set struct {
	probes []*Probe
	byRole map[string]*Probe
}

// NewSet returns an empty probe set.
func NewSet() *Set {
	return &Set{byRole: make(map[string]*Probe)}
}

// Probe returns the probe for role, creating it on first use.
func (s *Set) Probe(role string) *Probe {
	if p, ok := s.byRole[role]; ok {
		return p
	}
	p := &Probe{Role: role}
	s.byRole[role] = p
	s.probes = append(s.probes, p)
	return p
}

// Probes returns copies of the probes in the order their roles were
// first seen — the form a Set is persisted in.
func (s *Set) Probes() []Probe {
	out := make([]Probe, len(s.probes))
	for i, p := range s.probes {
		out[i] = *p
	}
	return out
}

// FromProbes rebuilds a set from probes in first-seen order, as Probes
// returned them; a repeated role accumulates into one probe.
func FromProbes(probes []Probe) *Set {
	s := NewSet()
	for _, q := range probes {
		p := s.Probe(q.Role)
		p.Ops += q.Ops
		p.ReadWords += q.ReadWords
		p.WriteWords += q.WriteWords
	}
	return s
}

// Ranked returns all probes ordered by descending access volume, ties
// broken by role name for determinism.
func (s *Set) Ranked() []*Probe {
	out := make([]*Probe, len(s.probes))
	copy(out, s.probes)
	sort.Slice(out, func(i, j int) bool {
		ai, aj := out[i].Accesses(), out[j].Accesses()
		if ai != aj {
			return ai > aj
		}
		return out[i].Role < out[j].Role
	})
	return out
}

// Dominant returns the roles of the k most-accessed containers (fewer if
// fewer candidates exist). These are the structures the exploration will
// refine; the rest keep their original implementation.
func (s *Set) Dominant(k int) []string {
	ranked := s.Ranked()
	if k > len(ranked) {
		k = len(ranked)
	}
	roles := make([]string, k)
	for i := 0; i < k; i++ {
		roles[i] = ranked[i].Role
	}
	return roles
}

// String renders the profile as an aligned table, most accessed first.
func (s *Set) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %12s %12s\n", "container", "ops", "reads", "writes", "accesses")
	for _, p := range s.Ranked() {
		fmt.Fprintf(&b, "%-16s %12d %12d %12d %12d\n",
			p.Role, p.Ops, p.ReadWords, p.WriteWords, p.Accesses())
	}
	return b.String()
}
