package explore

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/astream"
	"repro/internal/memsim"
	"repro/internal/vheap"
)

// mkRun records one whole-run capture of n accesses (one-lane composed
// stream, metered by a fresh heap), optionally partial.
func mkRun(n int, partial bool) schedEntry {
	cr := astream.NewComposedRecorder(nil, []astream.LaneMeter{vheap.New()})
	for i := 0; i < n; i++ {
		cr.RecordAccess(false, uint32(0x1000_0000+i*64), 4, 1)
	}
	sched, lanes := cr.Finish(partial)
	return schedEntry{Sched: sched, Ambient: lanes[0]}
}

// TestLoadPartialDoesNotReplaceComplete pins that a loaded whole-run
// capture from an aborted run never lands in the cache — neither over
// a complete capture already held in memory nor in an empty slot — the
// same invariant storeRun enforces, while a loaded complete capture
// fills an empty slot.
func TestLoadPartialDoesNotReplaceComplete(t *testing.T) {
	id := streamEntry{App: "URL", Packets: 300}
	// storeRun drops partial captures, so plant one directly, as an
	// older or foreign writer could have saved it.
	donor := NewCache()
	donor.scheds["K"] = mkRun(1, true)
	donor.runs["K"] = id
	var buf bytes.Buffer
	if err := donor.SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	c := NewCache()
	c.storeRun("K", id, mkRun(2, false))
	if err := c.Load(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if _, lane, _, ok := c.lookupRun("K"); !ok || lane.Partial || lane.Accesses != 2 {
		t.Fatalf("complete capture lost to a loaded partial (ok=%v)", ok)
	}
	empty := NewCache()
	if err := empty.Load(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := empty.lookupRun("K"); ok || empty.Stats().Streams != 0 {
		t.Fatal("a loaded partial capture became replayable")
	}

	// The reverse direction: a loaded complete capture fills the slot a
	// partial run could never occupy.
	donor2 := NewCache()
	donor2.storeRun("K", id, mkRun(1, false))
	var buf2 bytes.Buffer
	if err := donor2.SaveWithStreams(&buf2); err != nil {
		t.Fatal(err)
	}
	c2 := NewCache()
	c2.storeRun("K", id, mkRun(1, true))
	if err := c2.Load(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := c2.lookupRun("K"); !ok {
		t.Fatal("loaded complete capture did not land")
	}
	if len(c2.runEntries()) != 1 {
		t.Fatal("loaded capture lost its identity")
	}
	if c2.Stats().StreamBytes <= 0 {
		t.Fatal("stream byte accounting broken after merge")
	}
}

// TestLoadParentStreamsSection pins the retired sections: a v4 file
// written before whole-run streams became one-lane composed captures
// and before lanes and schedules gained the raw-chunk layout
// (testdata: results, the old streams section, gob-layout lanes and
// schedules, reuse and lane profiles, checkpoint) still loads — every
// other section merges and nothing is reported dropped or truncated —
// while its streams, lanes and schedules are skipped.
func TestLoadParentStreamsSection(t *testing.T) {
	c := NewCache()
	rep, err := c.LoadFile(filepath.Join("testdata", "parent_v4_streams.simcache"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated || len(rep.Dropped) != 0 {
		t.Fatalf("parent file did not load cleanly: %+v", rep)
	}
	for _, want := range []string{"results", "reuse-profiles", "lane-profiles", "checkpoint"} {
		if !slices.Contains(rep.Sections, want) {
			t.Errorf("section %q not merged: %+v", want, rep.Sections)
		}
	}
	for _, skipped := range []string{"lanes", "schedules"} {
		if slices.Contains(rep.Sections, skipped) {
			t.Errorf("retired gob-layout %s section merged: %+v", skipped, rep.Sections)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Streams != 0 || st.Lanes != 0 || st.Schedules != 0 ||
		st.ReuseProfiles != 1 || st.LaneProfiles != 1 {
		t.Fatalf("parent file loaded as %+v", st)
	}
	if ck, ok := c.Checkpoint(); !ok || ck.Settled != 7 {
		t.Fatalf("checkpoint not merged: %+v ok=%v", ck, ok)
	}
}

// mkReuseProfile builds a small real reuse profile from an all-geometry
// pass over a handful of accesses.
func mkReuseProfile(t *testing.T) *memsim.ReuseProfile {
	t.Helper()
	gs, err := memsim.NewGeomSim([]memsim.Config{memsim.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	gs.ProbeAccesses([]uint32{0x1000, 0x1004, 0x9000, 0x1000}, []uint32{4, 4, 64, 4})
	p := gs.Profile()
	p.ReadWords, p.WriteWords, p.OpCycles, p.Peak = 8, 2, 40, 512
	return p
}

// TestReuseProfilePersistenceAndBudget pins the profile store: profiles
// count against the stream budget, survive SaveWithStreams/Load intact,
// and are evicted only after every stream — dropping last because they
// are the cheapest path to a result.
func TestReuseProfilePersistenceAndBudget(t *testing.T) {
	c := NewCache()
	p := mkReuseProfile(t)
	key := reuseProfileKey("S", p.LineBytes)
	c.storeReuseProfile(key, p)
	if got := c.Stats().StreamBytes; got != int64(p.SizeBytes()) {
		t.Fatalf("profile bytes not budgeted: %d vs %d", got, p.SizeBytes())
	}
	// Replacement swaps the accounting, not doubles it.
	c.storeReuseProfile(key, p)
	if got := c.Stats().StreamBytes; got != int64(p.SizeBytes()) {
		t.Fatalf("profile replacement double-counted: %d vs %d", got, p.SizeBytes())
	}

	var buf bytes.Buffer
	if err := c.SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewCache()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got := loaded.lookupReuseProfile(key)
	if got == nil || !reflect.DeepEqual(got, p) {
		t.Fatalf("profile did not round-trip: %+v", got)
	}
	if s := loaded.Stats(); s.ReuseProfiles != 1 || s.StreamBytes != int64(p.SizeBytes()) {
		t.Fatalf("loaded stats wrong: %+v", s)
	}
	// Save without streams drops profiles along with streams and lanes.
	var lean bytes.Buffer
	if err := c.Save(&lean); err != nil {
		t.Fatal(err)
	}
	leanCache := NewCache()
	if err := leanCache.Load(&lean); err != nil {
		t.Fatal(err)
	}
	if s := leanCache.Stats(); s.ReuseProfiles != 0 {
		t.Fatalf("results-only save kept %d profiles", s.ReuseProfiles)
	}

	// Eviction order: squeezing the budget drops the (bigger) stream
	// first and keeps the profile; squeezing further drops the profile.
	c2 := NewCache()
	c2.storeRun("K", streamEntry{App: "URL", Packets: 1}, mkRun(4096, false))
	c2.storeReuseProfile(key, p)
	c2.SetStreamBudget(int64(p.SizeBytes()) + 64)
	if s := c2.Stats(); s.Streams != 0 || s.ReuseProfiles != 1 {
		t.Fatalf("eviction order wrong: %+v", s)
	}
	if c2.lookupReuseProfile(key) == nil {
		t.Fatal("profile lost while budget still held it")
	}
	c2.SetStreamBudget(1)
	if s := c2.Stats(); s.ReuseProfiles != 0 {
		t.Fatalf("profile survived a 1-byte budget: %+v", s)
	}
}

// mkSampledProfile builds a small sampled reuse profile (screening
// estimate) from a sampled all-geometry pass.
func mkSampledProfile(t *testing.T) *memsim.ReuseProfile {
	t.Helper()
	gs, err := memsim.NewGeomSimSampled([]memsim.Config{memsim.DefaultConfig()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint32, 256)
	sizes := make([]uint32, 256)
	for i := range addrs {
		addrs[i], sizes[i] = uint32(i*64), 4
	}
	gs.ProbeAccesses(addrs, sizes)
	p := gs.Profile()
	p.ReadWords, p.WriteWords, p.OpCycles, p.Peak = 8, 2, 40, 512
	return p
}

// TestCacheEvictionOrder pins the documented eviction tiers end to end:
// under a shrinking budget, sampled profiles go first (approximate
// screening artifacts, one sampled replay each), then lane profiles
// (derived data, rederivable from their lane), then whole-run captures,
// then lane sub-streams, then reuse profiles — and composition
// schedules never.
func TestCacheEvictionOrder(t *testing.T) {
	c := NewCache()
	sp := mkSampledProfile(t)
	lp := mkReuseProfile(t)
	lp.ColdLines, lp.EndLive = 2, 64
	rp := mkReuseProfile(t)
	c.storeRun("stream", streamEntry{App: "URL", Packets: 1}, mkRun(4096, false))
	lane := mkRun(2048, false).Ambient
	lane.Role, lane.Lane = "r", 1
	c.storeLane("lane", lane)
	// A composition schedule survives every tier.
	sched := mkRun(16, false)
	sched.Sched.Roles = []string{"r"}
	c.storeSchedule("sched", sched)
	c.storeReuseProfile("rprof", rp)
	c.storeLaneProfile("lprof", lp)
	c.storeSampledProfile(screenKey("sprof", 2), sp)

	snapshot := func() (sprofs, lprofs, streams, lanes, rprofs int) {
		s := c.Stats()
		return s.SampledProfiles, s.LaneProfiles, s.Streams, s.Lanes, s.ReuseProfiles
	}
	if sp, lp, st, ln, rp := snapshot(); sp != 1 || lp != 1 || st != 1 || ln != 1 || rp != 1 {
		t.Fatalf("setup wrong: %d/%d/%d/%d/%d", sp, lp, st, ln, rp)
	}

	// Tier 1: squeeze out only the sampled profile.
	c.SetStreamBudget(c.Stats().StreamBytes - 1)
	if sp, lp, st, ln, rp := snapshot(); sp != 0 || lp != 1 || st != 1 || ln != 1 || rp != 1 {
		t.Fatalf("sampled profile not evicted first: %d/%d/%d/%d/%d", sp, lp, st, ln, rp)
	}
	// Tier 2: the lane profile goes before anything user-visible.
	c.SetStreamBudget(c.Stats().StreamBytes - 1)
	if _, lp, st, ln, rp := snapshot(); lp != 0 || st != 1 || ln != 1 || rp != 1 {
		t.Fatalf("lane profile not evicted second: %d/%d/%d/%d", lp, st, ln, rp)
	}
	// Tier 3: the whole stream goes before the lane.
	c.SetStreamBudget(c.Stats().StreamBytes - 1)
	if _, lp, st, ln, rp := snapshot(); st != 0 || ln != 1 || rp != 1 {
		t.Fatalf("stream not evicted third: %d/%d/%d/%d", lp, st, ln, rp)
	}
	// Tier 4: the lane sub-stream goes before the reuse profile.
	c.SetStreamBudget(c.Stats().StreamBytes - 1)
	if _, lp, st, ln, rp := snapshot(); ln != 0 || rp != 1 {
		t.Fatalf("lane not evicted fourth: %d/%d/%d/%d", lp, st, ln, rp)
	}
	// Tier 5: finally the reuse profile.
	c.SetStreamBudget(1)
	if _, _, _, _, rp := snapshot(); rp != 0 {
		t.Fatal("reuse profile survived a 1-byte budget")
	}
	if s := c.Stats(); s.Schedules != 1 {
		t.Fatalf("composition schedule evicted: %+v", s)
	}
}

// TestSampledProfilesNotPersisted pins that sampled screening profiles
// are runtime-only: SaveWithStreams drops them (they are approximate
// artifacts any screening run rebuilds in one sampled replay).
func TestSampledProfilesNotPersisted(t *testing.T) {
	c := NewCache()
	key := screenKey("sprof", 2)
	c.storeSampledProfile(key, mkSampledProfile(t))
	var buf bytes.Buffer
	if err := c.SaveWithStreams(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewCache()
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s := loaded.Stats(); s.SampledProfiles != 0 {
		t.Fatalf("sampled profiles persisted: %+v", s)
	}
	if loaded.lookupSampledProfile(key) != nil {
		t.Fatal("sampled profile survived a save/load round trip")
	}
}

// TestReuseProfileStoreMergesCoverage pins that re-storing a profile
// built from a narrower family merges into — never replaces — the
// accumulated coverage for the identity.
func TestReuseProfileStoreMergesCoverage(t *testing.T) {
	wide := memsim.DefaultConfig()
	narrow := memsim.DefaultConfig()
	narrow.L1.SizeBytes = 16 << 10

	mk := func(cfg memsim.Config) *memsim.ReuseProfile {
		gs, err := memsim.NewGeomSim([]memsim.Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		gs.ProbeAccesses([]uint32{0x1000, 0x5000, 0x1000, 0x20000}, []uint32{4, 8, 4, 4})
		return gs.Profile()
	}

	c := NewCache()
	key := reuseProfileKey("S", 32)
	c.storeReuseProfile(key, mk(wide))
	c.storeReuseProfile(key, mk(narrow))
	p := c.lookupReuseProfile(key)
	if p == nil || !p.Covers(wide) || !p.Covers(narrow) {
		t.Fatalf("narrow re-store lost coverage: %+v", p)
	}
	if got := c.Stats().StreamBytes; got != int64(p.SizeBytes()) {
		t.Fatalf("merge accounting wrong: %d vs %d", got, p.SizeBytes())
	}
}
