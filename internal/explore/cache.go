package explore

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/memsim"
	"repro/internal/profiler"
)

// Cache memoizes finished simulation results. The key identifies a
// simulation completely — application, trace, per-simulation packet count,
// knobs, platform configuration and DDT assignment — so a hit is exactly
// the deterministic result the simulation would recompute. The network
// level exploration re-visits step-1 points, sweeps revisit whole
// configurations, and repeated CLI runs (via Save/Load) revisit entire
// explorations; the cache turns all of those into lookups.
//
// Beside finished results the cache holds platform-invariant stores
// keyed by the simulation identity *minus* the platform configuration:
//
//   - Access streams (internal/astream): the word-access stream of an
//     executed simulation, captured once as a one-lane composed stream
//     and kept as a schedule entry (a one-token schedule whose ambient
//     lane is the whole run) under the identity's stream key. Any other
//     platform point for the same (app, config, packets, assignment) is
//     then served by replaying the lane instead of re-running the
//     application — the capture-once / replay-many fast path of
//     multi-platform sweeps. Streams are byte-budgeted
//     (SetStreamBudget); eviction only costs a potential re-execution
//     later. Captures of aborted runs are dropped.
//   - Profiles: dominance profiling attributes accesses per container
//     role, which is platform-invariant, so a sweep profiles each
//     network configuration once rather than once per platform point.
//     Every save persists them, so a warm rerun profiles nothing.
//   - Compositional stores (Options.Compose): per-(role, kind) lane
//     sub-streams and per-configuration operation schedules, keyed by
//     the DDT-invariant run identity. Any combination whose K lanes are
//     all present is served by composed replay; ~10·K lanes stand in
//     for the 10^K whole-run streams a flat capture would need. Each
//     lane's decoded struct-of-arrays form is memoized at runtime so
//     composition decodes a lane once, not once per combination.
//   - Lane profiles (Options.BoundPrune): the isolated reuse profile of
//     each lane, the ingredients of the admissible combination lower
//     bound. Persisted with SaveWithStreams so a warm re-exploration
//     prunes dominated combinations before decoding anything; being
//     rederivable from their lanes they are the first tier evicted
//     under budget pressure (see evictLocked).
//
// Aborted results are stored as dominance tombstones: the partial vector
// plus the proof (by construction) that an identical exploration already
// found the point dominated. Guarded exploration streams accept them and
// skip the re-simulation; unguarded callers (Engine.Simulate) treat them
// as misses and overwrite them with the full result. A Cache is safe for
// concurrent use and may be shared between engines.
type Cache struct {
	mu sync.RWMutex
	m  map[string]cacheEntry

	sm           sync.RWMutex
	streamBytes  int64
	streamBudget int64

	// Compositional stores (also guarded by sm, counted against the
	// stream budget): per-(role, kind) lane sub-streams and schedule
	// entries — per-configuration schedules, plus whole-run captures
	// under their stream keys. runs holds the identity of each whole-run
	// capture (for ReplayPlatforms) and runOrder their insertion order,
	// for budget eviction. unpacked memoizes each lane's decoded
	// struct-of-arrays form — derived data, rebuilt on demand and
	// dropped with its lane, so composition decodes each lane once per
	// process instead of once per combination.
	lanes     map[string]*astream.SubStream
	laneOrder []string
	scheds    map[string]schedEntry
	runs      map[string]streamEntry
	runOrder  []string
	unpacked  map[string]*astream.UnpackedLane

	// Lanes and schedules LoadFile left unread (also guarded by sm): the
	// stored sub-stream of such an entry is a chunkless stand-in built
	// from its index row; the chunks are read on first lookup (laneAt,
	// schedAt). Until then the entry is charged its on-disk size.
	unreadLanes, unreadScheds map[string]*unreadEntry

	// Reuse profiles (also guarded by sm, counted against the stream
	// budget): per-(identity, line size) stack-distance histograms from
	// all-geometry replay passes (memsim.ReuseProfile). A covered
	// platform point is then pure arithmetic — no stream decode, no
	// probes — so they are evicted only after every stream and lane,
	// being both tiny and the cheapest path to a result.
	rprofiles  map[string]*memsim.ReuseProfile
	rprofOrder []string

	// Lane profiles (also guarded by sm, counted against the stream
	// budget): the ISOLATED reuse profile of one (role, kind) lane — or
	// a configuration's ambient lane — per line size, feeding the
	// admissible combination lower bound (memsim.BoundFromProfile). They
	// are derived data, cheaply recomputable from their cached lane, so
	// under budget pressure they are evicted FIRST — before any stream
	// or lane, and ahead of nothing user-visible (asserted by
	// TestCacheEvictionOrder).
	lprofiles  map[string]*memsim.ReuseProfile
	lprofOrder []string

	// Sampled reuse profiles (also guarded by sm, counted against the
	// stream budget): the rate-tagged estimates a screening replay
	// leaves behind, keyed like reuse profiles plus the sample shift
	// (screenKey) so they can never answer an exact lookup. Cheap
	// screening artifacts, rebuildable by one sampled replay: evicted
	// FIRST, ahead even of lane profiles, and never persisted by
	// SaveWithStreams.
	sprofiles  map[string]*memsim.ReuseProfile
	sprofOrder []string

	pm       sync.Mutex
	profiles map[string]*profiler.Set

	// Campaign checkpoint (own mutex): the latest engine snapshot —
	// settled-job watermark, survivor front, stats — persisted as its
	// own section so an interrupted run resumes with its reporting
	// state, not just its memoized results.
	ckMu sync.Mutex
	ckpt *Checkpoint

	hits, misses             atomic.Uint64
	streamHits, streamMisses atomic.Uint64
	laneHits, laneMisses     atomic.Uint64
	rprofHits, rprofMisses   atomic.Uint64

	// gen is bumped by every change to persisted state: a stored or
	// merged entry, an invalidation, a budget eviction that drops
	// something, a changed checkpoint. drops counts loaded or retained
	// items discarded (filtered on merge, evicted). Together with clean
	// — the file last loaded completely or saved, at which generation —
	// they let SaveFile skip rewriting a file that already holds the
	// cache.
	gen    atomic.Uint64
	drops  atomic.Uint64
	fileMu sync.Mutex
	clean  *cleanFile

	warn func(msg string) // see SetWarn
}

// cacheEntry is one memoized simulation. Ctx tags tombstones with the
// exploration semantics (prune mode, dominant-k, abort margin, bound
// pruning) that proved the point dominated: a tombstone is only a valid
// answer for an engine exploring the same job space under the same
// discard rules, while finished results are valid for everyone.
type cacheEntry struct {
	Result Result
	Ctx    string
}

// streamEntry is the platform-invariant identity of one whole-run
// capture. It lets ReplayPlatforms enumerate captures and store exact
// per-platform results without re-deriving keys from the outside.
// Arenas records the address model the stream was captured under; replay
// results are stored under matching keys so the two models never mix.
type streamEntry struct {
	App     string
	Cfg     Config
	Assign  apps.Assignment
	Packets int
	Arenas  bool
}

// schedEntry is one run's operation schedule plus everything about the
// run that is DDT-invariant: the ambient lane's sub-stream and the
// behavioural summary (the refinement never changes functionality, so
// one summary serves every combination of the same configuration). A
// whole-run capture is a schedEntry with zero roles: its one-token
// schedule makes the ambient lane the entire run.
type schedEntry struct {
	Sched   *astream.Schedule
	Ambient *astream.SubStream
	Summary apps.Summary
}

// sizeBytes reports the entry's retained bytes for the stream budget.
func (e schedEntry) sizeBytes() int64 {
	return int64(e.Sched.SizeBytes() + e.Ambient.SizeBytes())
}

// wholeRun reports whether the entry is a whole-run capture rather than
// a per-configuration composition schedule.
func (e schedEntry) wholeRun() bool { return len(e.Sched.Roles) == 0 }

// runEntry is one retained whole-run capture with its identity.
type runEntry struct {
	streamEntry
	schedEntry
}

// DefaultStreamBudget bounds the encoded bytes of retained access
// streams: generous enough to hold a full step-1 combination space at
// benchmark scale, small enough to keep multi-application sweeps from
// growing without bound.
const DefaultStreamBudget = 256 << 20

// NewCache returns an empty simulation cache.
func NewCache() *Cache {
	return &Cache{
		m:            make(map[string]cacheEntry),
		lanes:        make(map[string]*astream.SubStream),
		scheds:       make(map[string]schedEntry),
		runs:         make(map[string]streamEntry),
		unpacked:     make(map[string]*astream.UnpackedLane),
		unreadLanes:  make(map[string]*unreadEntry),
		unreadScheds: make(map[string]*unreadEntry),
		rprofiles:    make(map[string]*memsim.ReuseProfile),
		lprofiles:    make(map[string]*memsim.ReuseProfile),
		sprofiles:    make(map[string]*memsim.ReuseProfile),
		streamBudget: DefaultStreamBudget,
	}
}

// SetStreamBudget overrides the byte budget for retained access streams.
// A non-positive budget disables stream retention entirely.
func (c *Cache) SetStreamBudget(bytes int64) {
	c.sm.Lock()
	c.streamBudget = bytes
	c.evictLocked()
	c.sm.Unlock()
}

// CacheStats reports cache traffic since construction (or Load).
type CacheStats struct {
	Hits, Misses               uint64
	Entries                    int
	Streams                    int   // retained whole-run access streams
	StreamBytes                int64 // retained bytes: encoded streams/lanes/schedules + memoized decoded lanes + reuse profiles
	StreamHits, StreamMisses   uint64
	Lanes                      int // retained per-(role, kind) lane sub-streams
	Schedules                  int // retained per-configuration schedules
	LaneHits, LaneMisses       uint64
	ReuseProfiles              int // retained per-(identity, line size) reuse profiles
	ProfileHits, ProfileMisses uint64
	LaneProfiles               int // retained per-lane isolated reuse profiles (bound pruning)
	SampledProfiles            int // retained rate-tagged sampled reuse profiles (screening)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.m)
	c.mu.RUnlock()
	c.sm.RLock()
	ns, nb := len(c.runOrder), c.streamBytes
	nl, nsch := len(c.lanes), len(c.scheds)-len(c.runOrder)
	np, nlp := len(c.rprofiles), len(c.lprofiles)
	nsp := len(c.sprofiles)
	c.sm.RUnlock()
	return CacheStats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n,
		Streams: ns, StreamBytes: nb,
		StreamHits: c.streamHits.Load(), StreamMisses: c.streamMisses.Load(),
		Lanes: nl, Schedules: nsch,
		LaneHits: c.laneHits.Load(), LaneMisses: c.laneMisses.Load(),
		ReuseProfiles: np,
		ProfileHits:   c.rprofHits.Load(), ProfileMisses: c.rprofMisses.Load(),
		LaneProfiles:    nlp,
		SampledProfiles: nsp,
	}
}

// Len returns the number of cached simulations.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// lookup returns a defensive copy of the cached result for key. Aborted
// (tombstone) entries only count as hits when the caller can use them —
// a guarded exploration stream with the same exploration semantics the
// tombstone was proven under; anyone else needs the finished vector.
func (c *Cache) lookup(key string, acceptAborted bool, ctx string) (Result, bool) {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if !ok || (e.Result.Aborted && !(acceptAborted && e.Ctx == ctx)) {
		c.misses.Add(1)
		return Result{}, false
	}
	c.hits.Add(1)
	return cloneResult(e.Result), true
}

// invalidate drops the finished result or tombstone stored under key,
// reporting whether an entry was present. The repair path of a
// distributed quarantine: wiping an admitted result returns its job to
// the unsettled space — the warm pre-pass and runJob both miss — so an
// honest resolver recomputes it from scratch. Compositional entries
// are untouched; the coordinator's verification oracle never trusts
// them (it re-simulates live), so results are the only admitted state
// a lie can occupy.
func (c *Cache) invalidate(key string) bool {
	c.mu.Lock()
	_, ok := c.m[key]
	if ok {
		delete(c.m, key)
		c.gen.Add(1)
	}
	c.mu.Unlock()
	return ok
}

// store saves a defensive copy of r under key, tagged with the storing
// engine's exploration context.
func (c *Cache) store(key string, r Result, ctx string) {
	e := cacheEntry{Result: cloneResult(r), Ctx: ctx}
	c.mu.Lock()
	c.m[key] = e
	c.mu.Unlock()
	c.gen.Add(1)
}

// lookupLane returns the complete lane sub-stream for a (role, kind)
// key. Partial lanes never hit.
func (c *Cache) lookupLane(key string) (*astream.SubStream, bool) {
	s, ok := c.laneAt(key)
	if !ok || s.Partial {
		c.laneMisses.Add(1)
		return nil, false
	}
	c.laneHits.Add(1)
	return s, true
}

// storeLane retains one (role, kind) lane sub-stream. Partial lanes are
// dropped outright: a lane from an aborted capture proves nothing.
func (c *Cache) storeLane(key string, s *astream.SubStream) {
	if s.Partial {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if old, ok := c.lanes[key]; ok {
		c.streamBytes -= c.laneBytes(key, old)
		c.forgetUnread(c.unreadLanes, key)
	} else {
		c.laneOrder = append(c.laneOrder, key)
	}
	c.lanes[key] = s
	c.streamBytes += int64(s.SizeBytes())
	c.gen.Add(1)
	c.evictLocked()
}

// unpackedLane returns the memoized decoded form of the lane stored
// under key, decoding it once on demand. sub must be the sub-stream the
// key resolves to. ambient marks the schedule's ambient lane, whose key
// is a schedule key rather than a lane key.
func (c *Cache) unpackedLane(key string, sub *astream.SubStream, ambient bool) (*astream.UnpackedLane, bool) {
	c.sm.RLock()
	u, ok := c.unpacked[key]
	c.sm.RUnlock()
	if ok {
		return u, true
	}
	u, err := sub.Unpack()
	if err != nil {
		return nil, false
	}
	c.sm.Lock()
	if exist, ok := c.unpacked[key]; ok {
		u = exist // another goroutine won the decode race
	} else {
		// Only memoize while the backing entry is retained, so evicting
		// a lane cannot strand its decoded form. Decoded bytes count
		// against the stream budget like their encoded backing.
		_, live := c.lanes[key]
		if ambient {
			_, live = c.scheds[key]
		}
		if live {
			c.unpacked[key] = u
			c.streamBytes += int64(u.SizeBytes())
			c.evictLocked()
		}
	}
	c.sm.Unlock()
	return u, true
}

// lookupReuseProfile returns the reuse profile for a (platform-
// invariant identity, line size) key. Profiles are shared, not copied:
// a memsim.ReuseProfile is immutable once stored.
func (c *Cache) lookupReuseProfile(key string) *memsim.ReuseProfile {
	c.sm.RLock()
	p := c.rprofiles[key]
	c.sm.RUnlock()
	if p == nil {
		c.rprofMisses.Add(1)
		return nil
	}
	c.rprofHits.Add(1)
	return p
}

// storeReuseProfile retains one reuse profile under the stream budget.
// A later profile for the same key is merged with the earlier one
// (memsim.ReuseProfile.Merge), so a pass over a narrower family can
// never shrink an identity's accumulated coverage.
func (c *Cache) storeReuseProfile(key string, p *memsim.ReuseProfile) {
	if p == nil {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if old, ok := c.rprofiles[key]; ok {
		c.streamBytes -= int64(old.SizeBytes())
		p = p.Merge(old)
	} else {
		c.rprofOrder = append(c.rprofOrder, key)
	}
	c.rprofiles[key] = p
	c.streamBytes += int64(p.SizeBytes())
	c.gen.Add(1)
	c.evictLocked()
}

// lookupLaneProfile returns the isolated lane profile for a
// (lane identity, line size) key. Like reuse profiles, lane profiles
// are shared, not copied: immutable once stored.
func (c *Cache) lookupLaneProfile(key string) *memsim.ReuseProfile {
	c.sm.RLock()
	p := c.lprofiles[key]
	c.sm.RUnlock()
	return p
}

// storeLaneProfile retains one isolated lane profile under the stream
// budget, merging with any earlier profile for the key (a pass for a
// narrower geometry family never shrinks accumulated coverage, exactly
// as storeReuseProfile).
func (c *Cache) storeLaneProfile(key string, p *memsim.ReuseProfile) {
	if p == nil {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if old, ok := c.lprofiles[key]; ok {
		c.streamBytes -= int64(old.SizeBytes())
		p = p.Merge(old)
	} else {
		c.lprofOrder = append(c.lprofOrder, key)
	}
	c.lprofiles[key] = p
	c.streamBytes += int64(p.SizeBytes())
	c.gen.Add(1)
	c.evictLocked()
}

// lookupSampledProfile returns the rate-tagged sampled reuse profile
// for a screenKey-wrapped (identity, line size) key. Shared, not
// copied: immutable once stored.
func (c *Cache) lookupSampledProfile(key string) *memsim.ReuseProfile {
	c.sm.RLock()
	p := c.sprofiles[key]
	c.sm.RUnlock()
	if p == nil {
		c.rprofMisses.Add(1)
		return nil
	}
	c.rprofHits.Add(1)
	return p
}

// storeSampledProfile retains one sampled reuse profile under the
// stream budget, merging with any earlier profile for the key exactly
// as storeReuseProfile does (sampled passes of the same stream at the
// same rate agree wherever they overlap — the hash filter is
// deterministic).
func (c *Cache) storeSampledProfile(key string, p *memsim.ReuseProfile) {
	if p == nil {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if old, ok := c.sprofiles[key]; ok {
		c.streamBytes -= int64(old.SizeBytes())
		p = p.Merge(old)
	} else {
		c.sprofOrder = append(c.sprofOrder, key)
	}
	c.sprofiles[key] = p
	c.streamBytes += int64(p.SizeBytes())
	c.evictLocked()
}

// lookupSchedule returns the DDT-invariant schedule entry (operation
// schedule, ambient lane, summary) for a configuration key.
func (c *Cache) lookupSchedule(key string) (*astream.Schedule, *astream.SubStream, apps.Summary, bool) {
	return c.lookupSched(key, &c.laneHits, &c.laneMisses)
}

// lookupRun returns the whole-run capture (one-token schedule, the run's
// lane, summary) for a platform-invariant stream key.
func (c *Cache) lookupRun(key string) (*astream.Schedule, *astream.SubStream, apps.Summary, bool) {
	return c.lookupSched(key, &c.streamHits, &c.streamMisses)
}

func (c *Cache) lookupSched(key string, hits, misses *atomic.Uint64) (*astream.Schedule, *astream.SubStream, apps.Summary, bool) {
	e, ok := c.schedAt(key)
	if !ok || e.Ambient.Partial {
		misses.Add(1)
		return nil, nil, apps.Summary{}, false
	}
	hits.Add(1)
	return e.Sched, e.Ambient, cloneSummary(e.Summary), true
}

// laneAt returns the lane stored under key, reading and verifying its
// chunks if it is still unread. Reading is not a change to persisted
// state; a lane whose chunks cannot be read or fail their checksum is
// dropped (a change) and reported missing, so it is captured again.
func (c *Cache) laneAt(key string) (*astream.SubStream, bool) {
	for {
		c.sm.RLock()
		s, ok := c.lanes[key]
		u := c.unreadLanes[key]
		c.sm.RUnlock()
		if !ok || u == nil {
			return s, ok
		}
		if !c.readUnread(secLanes, key, u) {
			return nil, false
		}
	}
}

// schedAt is laneAt for the schedule entry stored under key, reading
// its ambient lane on first use.
func (c *Cache) schedAt(key string) (schedEntry, bool) {
	for {
		c.sm.RLock()
		e, ok := c.scheds[key]
		u := c.unreadScheds[key]
		c.sm.RUnlock()
		if !ok || u == nil {
			return e, ok
		}
		if !c.readUnread(secScheds, key, u) {
			return schedEntry{}, false
		}
	}
}

// laneBytes is the stream-budget charge of the lane s stored under
// key: its chunk bytes, read or not. Called with sm held.
func (c *Cache) laneBytes(key string, s *astream.SubStream) int64 {
	if u := c.unreadLanes[key]; u != nil {
		return u.size
	}
	return int64(s.SizeBytes())
}

// schedBytes is laneBytes for the schedule entry e stored under key.
func (c *Cache) schedBytes(key string, e schedEntry) int64 {
	if u := c.unreadScheds[key]; u != nil {
		return int64(e.Sched.SizeBytes()) + u.size
	}
	return e.sizeBytes()
}

// storeSchedule retains a configuration's schedule entry. The schedule
// is DDT-invariant, so the first complete capture of a configuration
// wins and later stores are no-ops. Schedules are charged against the
// stream budget but never evicted: without one, every lane of its
// configuration is useless.
func (c *Cache) storeSchedule(key string, e schedEntry) {
	if e.Ambient.Partial {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if _, ok := c.scheds[key]; ok {
		return
	}
	e.Summary = cloneSummary(e.Summary)
	c.scheds[key] = e
	c.streamBytes += e.sizeBytes()
	c.gen.Add(1)
	c.evictLocked()
}

// storeRun retains a whole-run capture and its identity under the
// platform-invariant stream key. Like a schedule, the first capture of
// an identity wins; unlike one, it is evicted under budget pressure (a
// pure performance loss, never a correctness one).
func (c *Cache) storeRun(key string, id streamEntry, e schedEntry) {
	if e.Ambient.Partial {
		return
	}
	c.sm.Lock()
	defer c.sm.Unlock()
	if c.streamBudget <= 0 {
		return
	}
	if _, ok := c.scheds[key]; ok {
		return
	}
	id.Cfg.Knobs = id.Cfg.Knobs.Clone()
	id.Assign = id.Assign.Clone()
	e.Summary = cloneSummary(e.Summary)
	c.scheds[key] = e
	c.runs[key] = id
	c.runOrder = append(c.runOrder, key)
	c.streamBytes += e.sizeBytes()
	c.gen.Add(1)
	c.evictLocked()
}

// runEntries snapshots the retained whole-run captures whose identity
// is known.
func (c *Cache) runEntries() []runEntry {
	c.sm.RLock()
	keys := slices.Clone(c.runOrder)
	c.sm.RUnlock()
	out := make([]runEntry, 0, len(keys))
	for _, k := range keys {
		e, ok := c.schedAt(k)
		c.sm.RLock()
		id, known := c.runs[k]
		c.sm.RUnlock()
		if ok && known {
			out = append(out, runEntry{id, e})
		}
	}
	return out
}

// captured reports whether the complete schedule entry or lane
// sub-stream stored under key is retained, without touching the
// hit/miss counters or reading an unread entry.
func (c *Cache) captured(key string) bool {
	c.sm.RLock()
	defer c.sm.RUnlock()
	if s, ok := c.lanes[key]; ok {
		return !s.Partial
	}
	e, ok := c.scheds[key]
	return ok && !e.Ambient.Partial
}

// has reports whether a finished (non-tombstone) result exists for key,
// without touching the hit/miss counters.
func (c *Cache) has(key string) bool {
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	return ok && !e.Result.Aborted
}

// evictLocked drops retained stream data until the budget holds, in a
// fixed tier order, oldest first within each tier:
//
//  1. sampled reuse profiles — screening estimates, the cheapest
//     artifacts in the cache (one sampled replay rebuilds one) and the
//     only approximate ones;
//  2. lane profiles — derived data, cheaply recomputed from their
//     cached lane; losing one costs a single isolated probe pass and
//     nothing user-visible;
//  3. whole-run captures — each is one simulation point (a lane serves
//     10^(K-1) combinations);
//  4. lane sub-streams;
//  5. reuse profiles — a profile is a few KB that answers a whole
//     geometry cross product with zero probes, so it outlives the
//     streams it summarizes.
//
// Composition schedules stay — they are small and every lane of their
// configuration depends on them. The order is asserted by
// TestCacheEvictionOrder. Called with sm held.
func (c *Cache) evictLocked() {
	for c.streamBytes > c.streamBudget && len(c.sprofOrder) > 0 {
		key := c.sprofOrder[0]
		c.sprofOrder = c.sprofOrder[1:]
		if p, ok := c.sprofiles[key]; ok {
			c.streamBytes -= int64(p.SizeBytes())
			delete(c.sprofiles, key)
		}
	}
	// Sampled profiles are never persisted; every later tier is, so
	// dropping from it changes what a save would write.
	dropped := func() {
		c.gen.Add(1)
		c.drops.Add(1)
	}
	for c.streamBytes > c.streamBudget && len(c.lprofOrder) > 0 {
		key := c.lprofOrder[0]
		c.lprofOrder = c.lprofOrder[1:]
		if p, ok := c.lprofiles[key]; ok {
			c.streamBytes -= int64(p.SizeBytes())
			delete(c.lprofiles, key)
			dropped()
		}
	}
	for c.streamBytes > c.streamBudget && len(c.runOrder) > 0 {
		key := c.runOrder[0]
		c.runOrder = c.runOrder[1:]
		if e, ok := c.scheds[key]; ok {
			c.streamBytes -= c.schedBytes(key, e)
			c.forgetUnread(c.unreadScheds, key)
			delete(c.scheds, key)
			delete(c.runs, key)
			dropped()
		}
	}
	for c.streamBytes > c.streamBudget && len(c.laneOrder) > 0 {
		key := c.laneOrder[0]
		c.laneOrder = c.laneOrder[1:]
		if s, ok := c.lanes[key]; ok {
			c.streamBytes -= c.laneBytes(key, s)
			c.forgetUnread(c.unreadLanes, key)
			delete(c.lanes, key)
			dropped()
			if u, ok := c.unpacked[key]; ok {
				c.streamBytes -= int64(u.SizeBytes())
				delete(c.unpacked, key)
			}
		}
	}
	for c.streamBytes > c.streamBudget && len(c.rprofOrder) > 0 {
		key := c.rprofOrder[0]
		c.rprofOrder = c.rprofOrder[1:]
		if p, ok := c.rprofiles[key]; ok {
			c.streamBytes -= int64(p.SizeBytes())
			delete(c.rprofiles, key)
			dropped()
		}
	}
	if len(c.runOrder) == 0 {
		c.runOrder = nil
	}
	if len(c.laneOrder) == 0 {
		c.laneOrder = nil
	}
	if len(c.rprofOrder) == 0 {
		c.rprofOrder = nil
	}
	if len(c.lprofOrder) == 0 {
		c.lprofOrder = nil
	}
	if len(c.sprofOrder) == 0 {
		c.sprofOrder = nil
	}
}

// lookupProfile returns the memoized dominance profile for the platform-
// invariant key. Profiles are shared, not copied: a profiler.Set is
// effectively immutable once the profiling run finishes.
func (c *Cache) lookupProfile(key string) *profiler.Set {
	c.pm.Lock()
	defer c.pm.Unlock()
	return c.profiles[key]
}

// storeProfile memoizes a dominance profile; saves persist it, so a
// warm rerun's profiling sub-step runs nothing.
func (c *Cache) storeProfile(key string, p *profiler.Set) {
	c.pm.Lock()
	if c.profiles == nil {
		c.profiles = make(map[string]*profiler.Set)
	}
	c.profiles[key] = p
	c.pm.Unlock()
	c.gen.Add(1)
}

// Save serializes the cached results and dominance profiles to w,
// without the access streams; use SaveWithStreams to persist those too.
// Counters are not saved.
func (c *Cache) Save(w io.Writer) error {
	_, err := c.save(w, false)
	return err
}

// SaveWithStreams serializes the cached results and the retained access
// streams — whole-run captures, per-(role, kind) lane sub-streams and
// schedules — so a later process can replay new platform points or
// compose new combinations without re-executing anything. Entries a
// LoadFile left unread are copied from that file and verified; one
// that fails is dropped and the save returns an error, after which a
// new save writes the cache without it (SaveFile does so by itself).
func (c *Cache) SaveWithStreams(w io.Writer) error {
	_, err := c.save(w, true)
	return err
}

// save and Load live in cache_io.go: the sectioned v4 format with
// per-section CRC32C framing and the atomic SaveFile path.

// cacheKey renders the complete identity of one simulation: the
// platform-invariant part (streamKey) plus the platform configuration.
// arenas distinguishes the per-role-arena address model, whose results
// are deliberately never interchangeable with shared-heap ones.
func cacheKey(app string, cfg Config, assign apps.Assignment, packets int, platform memsim.Config, arenas bool) string {
	return fmt.Sprintf("%s|%+v", streamKey(app, cfg, assign, packets, arenas), platform)
}

// streamKey renders the platform-invariant part of a simulation's
// identity — everything that determines the word-access stream,
// including the address model.
func streamKey(app string, cfg Config, assign apps.Assignment, packets int, arenas bool) string {
	k := fmt.Sprintf("%s|%s|%d|%s", app, cfg, packets, assign)
	if arenas {
		k += "|arenas"
	}
	return k
}

// reuseProfileKey identifies one reuse profile: the platform-invariant
// stream identity plus the line size whose geometry family the profile
// covers.
func reuseProfileKey(skey string, lineBytes uint32) string {
	return fmt.Sprintf("%s|reuse|%d", skey, lineBytes)
}

// screenKey tags a cache key with the screening sample shift, so
// sampled estimates, their widened-bound tombstones and their profiles
// never collide with exact entries — or with entries screened at a
// different rate.
func screenKey(key string, sampleShift uint32) string {
	return fmt.Sprintf("%s|s%d", key, sampleShift)
}

// laneProfileKey identifies one isolated lane profile: the lane's cache
// key (laneKey for role lanes, schedKey for the ambient lane) plus the
// line size of the geometry family the profile covers.
func laneProfileKey(base string, lineBytes uint32) string {
	return fmt.Sprintf("%s|lprof|%d", base, lineBytes)
}

// runID is the DDT-invariant run identity — application, configuration,
// trace length — that lane and schedule keys extend. Callers building
// several keys of one run format it once.
type runID string

func newRunID(app string, cfg Config, packets int) runID {
	return runID(fmt.Sprintf("%s|%s|%d|", app, cfg, packets))
}

// lane is laneKey under this run identity.
func (r runID) lane(role string, kind ddt.Kind) string {
	return string(r) + "lane|" + role + "=" + kind.String()
}

// sched is schedKey under this run identity.
func (r runID) sched() string { return string(r) + "sched" }

// laneKey identifies one (role, kind) lane sub-stream: the DDT-invariant
// run identity plus the single role and the kind implementing it. Lane
// capture always runs arena-mode, so no address-model marker is needed.
func laneKey(app string, cfg Config, packets int, role string, kind ddt.Kind) string {
	return newRunID(app, cfg, packets).lane(role, kind)
}

// schedKey identifies a configuration's DDT-invariant schedule entry.
func schedKey(app string, cfg Config, packets int) string {
	return newRunID(app, cfg, packets).sched()
}

// cloneSummary deep-copies a behavioural summary.
func cloneSummary(s apps.Summary) apps.Summary {
	if s.Events != nil {
		events := make(map[string]int, len(s.Events))
		for k, v := range s.Events {
			events[k] = v
		}
		s.Events = events
	}
	return s
}

// cloneResult deep-copies the maps a Result carries so cached entries and
// the results handed to callers never alias.
func cloneResult(r Result) Result {
	r.Config.Knobs = r.Config.Knobs.Clone()
	r.Assign = r.Assign.Clone()
	r.Summary = cloneSummary(r.Summary)
	return r
}
