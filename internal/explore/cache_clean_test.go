package explore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// countingApp counts every application run, profiling included.
type countingApp struct {
	apps.App
	runs *atomic.Int64
}

func (a countingApp) Run(tr *trace.Trace, p *platform.Platform, assign apps.Assignment, knobs apps.Knobs, probes *profiler.Set) (apps.Summary, error) {
	a.runs.Add(1)
	return a.App.Run(tr, p, assign, knobs, probes)
}

// runCampaign explores a's whole campaign on cache, as the CLI does with
// -compose, and records the terminal checkpoint. It returns the engine.
func runCampaign(t *testing.T, a apps.App, cache *Cache) *Engine {
	t.Helper()
	eng := NewEngine(a, Options{TracePackets: 200, Workers: 2, Compose: true, BoundPrune: true, Cache: cache})
	if _, _, err := eng.Explore(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng.FinishCampaign()
	return eng
}

// loadClean loads path into a fresh cache and fails unless the load was
// complete.
func loadClean(t *testing.T, path string) *Cache {
	t.Helper()
	c := NewCache()
	rep, err := c.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.complete() {
		t.Fatalf("load of %s salvaged: %+v", path, rep)
	}
	t.Cleanup(c.Release)
	return c
}

// fileSnapshot is a file's bytes and on-disk identity.
type fileSnapshot struct {
	data []byte
	info os.FileInfo
}

func snapshot(t *testing.T, path string) fileSnapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fileSnapshot{data, info}
}

// TestSettledRerunLeavesCacheFileUntouched pins the warm-rerun fast
// path: once a campaign's cache has settled, rerunning the campaign from
// it executes nothing (profiling included) and saving leaves the file
// alone — same bytes, same inode, same modification time.
func TestSettledRerunLeavesCacheFileUntouched(t *testing.T) {
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "drr.replay")
	cold := NewCache()
	runCampaign(t, a, cold)
	if err := cold.SaveFile(path, true); err != nil {
		t.Fatal(err)
	}
	settled := false
	for i := 0; i < 3 && !settled; i++ {
		c := loadClean(t, path)
		runCampaign(t, a, c)
		wrote, err := c.SaveFileReported(path, true)
		if err != nil {
			t.Fatal(err)
		}
		settled = !wrote
	}
	if !settled {
		t.Fatal("three warm reruns still rewrote the cache file")
	}

	before := snapshot(t, path)
	c := loadClean(t, path)
	var runs atomic.Int64
	eng := runCampaign(t, countingApp{a, &runs}, c)
	if n := runs.Load(); n != 0 {
		t.Errorf("settled rerun executed the application %d times, want 0", n)
	}
	if st := eng.Stats(); st.Simulated != 0 {
		t.Errorf("settled rerun simulated %d jobs", st.Simulated)
	}
	wrote, err := c.SaveFileReported(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if wrote {
		t.Error("settled rerun rewrote the cache file")
	}
	after := snapshot(t, path)
	if !bytes.Equal(before.data, after.data) || !os.SameFile(before.info, after.info) || !before.info.ModTime().Equal(after.info.ModTime()) {
		t.Error("settled rerun changed the cache file's bytes, inode or modification time")
	}
}

// TestSaveRewritesChangedCache pins when a save after a complete load
// must write: any change to what the file would hold, any doubt about
// the file on disk, and a save of a different section set. A
// checkpoint that differs only in its counters is no change.
func TestSaveRewritesChangedCache(t *testing.T) {
	src := NewCache()
	src.store("k1", Result{App: "URL"}, "")
	src.store("k2", Result{App: "URL"}, "")
	lane := mkRun(200, false).Ambient
	lane.Role, lane.Lane = "r", 1
	src.storeLane("lane", lane)
	sched := mkRun(100, false)
	sched.Sched.Roles = []string{"r"}
	src.storeSchedule("sched", sched)
	src.storeProfile("URL|cfg|300", profiler.FromProbes([]profiler.Probe{{Role: "r", Ops: 3, ReadWords: 9}}))
	ck := Checkpoint{App: "URL", Ctx: "ctx", Settled: 42, Done: true, Stats: EngineStats{CacheHits: 5}}
	src.SetCheckpoint(ck)
	var img bytes.Buffer
	if err := src.SaveWithStreams(&img); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		damage func(data []byte)                         // applied to the file before the load
		mutate func(t *testing.T, c *Cache, path string) // applied after the load
		withSt bool
		want   bool
	}{
		{name: "unchanged", withSt: true},
		{name: "checkpoint-counters-only", withSt: true, mutate: func(t *testing.T, c *Cache, _ string) {
			ck2 := ck
			ck2.Stats = EngineStats{CacheHits: 99}
			c.SetCheckpoint(ck2)
			if got, _ := c.Checkpoint(); got.Stats != ck.Stats {
				t.Errorf("checkpoint counters replaced: %+v, want the first run's %+v", got.Stats, ck.Stats)
			}
		}},
		{name: "new-result", withSt: true, want: true, mutate: func(t *testing.T, c *Cache, _ string) {
			c.store("k3", Result{App: "URL"}, "")
		}},
		{name: "invalidated-result", withSt: true, want: true, mutate: func(t *testing.T, c *Cache, _ string) {
			c.invalidate("k1")
		}},
		{name: "eviction", withSt: true, want: true, mutate: func(t *testing.T, c *Cache, _ string) {
			c.SetStreamBudget(1)
		}},
		{name: "changed-checkpoint", withSt: true, want: true, mutate: func(t *testing.T, c *Cache, _ string) {
			ck2 := ck
			ck2.Settled++
			c.SetCheckpoint(ck2)
		}},
		{name: "salvaged-load", withSt: true, want: true, damage: func(data []byte) {
			data[len(data)-40] ^= 0xFF // inside the last section before the end marker
		}},
		{name: "modified-on-disk", withSt: true, want: true, mutate: func(t *testing.T, c *Cache, path string) {
			later := time.Now().Add(time.Hour)
			if err := os.Chtimes(path, later, later); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "results-only-save", withSt: false, want: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Clone(img.Bytes())
			if tc.damage != nil {
				tc.damage(data)
			}
			path := filepath.Join(t.TempDir(), "cache.replay")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			c := NewCache()
			if _, err := c.LoadFile(path); err != nil {
				t.Fatal(err)
			}
			if tc.mutate != nil {
				tc.mutate(t, c, path)
			}
			wrote, err := c.SaveFileReported(path, tc.withSt)
			if err != nil {
				t.Fatal(err)
			}
			if wrote != tc.want {
				t.Fatalf("save wrote=%v, want %v", wrote, tc.want)
			}
			// Whatever the first save did, the file now holds the cache:
			// an immediate second save has nothing to write.
			if wrote, err := c.SaveFileReported(path, tc.withSt); err != nil || wrote {
				t.Fatalf("second save wrote=%v err=%v, want a no-op", wrote, err)
			}
		})
	}

	t.Run("cache-not-empty-before-load", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "cache.replay")
		if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		c.store("mine", Result{App: "URL"}, "")
		if _, err := c.LoadFile(path); err != nil {
			t.Fatal(err)
		}
		if wrote, err := c.SaveFileReported(path, true); err != nil || !wrote {
			t.Fatalf("save of a cache holding more than its file: wrote=%v err=%v", wrote, err)
		}
	})
}

// TestPersistedProfileMatchesFresh pins the dominance-profile section:
// a profile saved by one process (results-only mode included) answers
// the next process's profiling sub-step with zero application runs, and
// equals a fresh profiling run probe for probe.
func TestPersistedProfileMatchesFresh(t *testing.T) {
	a, err := netapps.ByName("URL")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Configs(a)[0]
	opts := Options{TracePackets: 300}
	src := NewCache()
	if _, err := NewEngine(a, Options{TracePackets: 300, Cache: src}).Profile(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "url.simcache")
	if err := src.SaveFile(path, false); err != nil {
		t.Fatal(err)
	}

	c := loadClean(t, path)
	var runs atomic.Int64
	got, err := NewEngine(countingApp{a, &runs}, Options{TracePackets: 300, Cache: c}).Profile(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 0 {
		t.Errorf("profiling from a persisted profile ran the application %d times", n)
	}
	fresh, err := Profile(a, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Probes(), fresh.Probes()) || got.String() != fresh.String() {
		t.Fatalf("persisted profile\n%s\ndiffers from a fresh run\n%s", got, fresh)
	}
}

// TestLoadedChunksAliasPayload pins the zero-copy stream sections: a
// multi-chunk lane and a schedule's ambient lane round-trip byte for
// byte, and every loaded chunk is capped at its own length, so an
// append through one can never overwrite its neighbour in the shared
// section buffer.
func TestLoadedChunksAliasPayload(t *testing.T) {
	src := NewCache()
	lane := mkRun(40000, false).Ambient
	lane.Role, lane.Lane = "r", 1
	if len(lane.Chunks) < 2 {
		t.Fatalf("lane has %d chunks, want several", len(lane.Chunks))
	}
	src.storeLane("lane", lane)
	sched := mkRun(30000, false)
	sched.Sched.Roles = []string{"r"}
	src.storeSchedule("sched", sched)
	var img bytes.Buffer
	if err := src.SaveWithStreams(&img); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	if err := c.Load(bytes.NewReader(img.Bytes())); err != nil {
		t.Fatal(err)
	}
	checkChunks := func(name string, want, got [][]byte) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d chunks loaded, %d saved", name, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s chunk %d differs after the round trip", name, i)
			}
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("%s chunk %d: cap %d != len %d", name, i, cap(got[i]), len(got[i]))
			}
		}
	}
	checkChunks("lane", lane.Chunks, c.lanes["lane"].Chunks)
	checkChunks("schedule", sched.Ambient.Chunks, c.scheds["sched"].Ambient.Chunks)
	if !reflect.DeepEqual(c.scheds["sched"].Sched, sched.Sched) {
		t.Fatal("schedule tokens or roles changed in the round trip")
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestSizedLoadMatchesStreamedLoad pins the two read paths: a file
// (whose remaining size sizes each payload buffer up front) and a plain
// reader (whose buffers grow as bytes arrive) load every prefix of an
// image to the same report and the same stats.
func TestSizedLoadMatchesStreamedLoad(t *testing.T) {
	src := NewCache()
	src.store("k1", Result{App: "URL"}, "")
	lane := mkRun(30000, false).Ambient
	lane.Role, lane.Lane = "r", 1
	src.storeLane("lane", lane)
	src.SetCheckpoint(Checkpoint{App: "URL", Settled: 3})
	var img bytes.Buffer
	if err := src.SaveWithStreams(&img); err != nil {
		t.Fatal(err)
	}
	full := img.Bytes()
	path := filepath.Join(t.TempDir(), "cache.replay")
	for _, n := range []int{12, 30, len(full) / 3, len(full) / 2, len(full) - 30, len(full) - 1, len(full)} {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		sized, streamed := NewCache(), NewCache()
		repS, errS := sized.LoadReported(mustOpen(t, path))
		repR, errR := streamed.LoadReported(bytes.NewReader(full[:n]))
		if (errS == nil) != (errR == nil) || !reflect.DeepEqual(repS, repR) || sized.Stats() != streamed.Stats() {
			t.Fatalf("prefix of %d bytes: file load %+v (%v, %+v), reader load %+v (%v, %+v)",
				n, repS, errS, sized.Stats(), repR, errR, streamed.Stats())
		}
	}
}
