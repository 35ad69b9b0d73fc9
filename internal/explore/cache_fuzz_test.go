package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/memsim"
	"repro/internal/profiler"
)

// fuzzSeedImages builds the v4 encodings Load accepts: lean and with
// streams from a cache holding an entry of every persisted kind, a
// composition-only image (lanes and schedules), an image with every
// section of the current layout, one whose lanes and schedules sections
// hold several entries each (the index-and-entry-CRC layout LoadFile
// reads lazily), a file written before whole-run streams became
// one-lane captures (its retired streams, lanes and schedules sections
// are skipped on load), and a file whose lanes and schedules are in the
// layout without index and entry CRCs (ids 9 and 10).
func fuzzSeedImages(tb testing.TB) [][]byte {
	tb.Helper()
	gs, err := memsim.NewGeomSim([]memsim.Config{memsim.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	gs.ProbeAccesses([]uint32{0x1000, 0x1004, 0x9000, 0x1000}, []uint32{4, 4, 64, 4})
	prof := gs.Profile()
	prof.ReadWords, prof.WriteWords, prof.OpCycles, prof.Peak = 8, 2, 40, 512

	c := NewCache()
	c.store("k1", Result{App: "URL"}, "prune=0 k=2")
	c.store("k2", Result{App: "URL", Aborted: true, Pruned: true}, "prune=1 k=2")
	c.storeRun("S", streamEntry{App: "URL", Packets: 300}, mkRun(3, false))
	c.storeReuseProfile(reuseProfileKey("S", prof.LineBytes), prof)
	c.SetCheckpoint(Checkpoint{App: "URL", Ctx: "prune=0 k=2", Step: 1, Settled: 42})

	var lean, full bytes.Buffer
	if err := c.Save(&lean); err != nil {
		tb.Fatal(err)
	}
	if err := c.SaveWithStreams(&full); err != nil {
		tb.Fatal(err)
	}

	cc := NewCache()
	sched := mkRun(4, false)
	sched.Sched.Roles = []string{"r"}
	cc.storeSchedule("sched", sched)
	lane := mkRun(5, false).Ambient
	lane.Role, lane.Lane = "r", 1
	cc.storeLane("lane", lane)
	var composed bytes.Buffer
	if err := cc.SaveWithStreams(&composed); err != nil {
		tb.Fatal(err)
	}

	// Every section the current layout writes, non-empty: raw-chunk
	// lanes and schedules, lane and dominance profiles, a checkpoint.
	cp := NewCache()
	cp.storeSchedule("sched", sched)
	cp.storeLane("lane", lane)
	cp.storeLaneProfile(laneProfileKey("lane", prof.LineBytes), prof)
	cp.storeProfile("URL|cfg|300", profiler.FromProbes([]profiler.Probe{{Role: "r", Ops: 2, ReadWords: 5, WriteWords: 1}}))
	cp.SetCheckpoint(Checkpoint{App: "URL", Ctx: "prune=1 k=2", Settled: 7, Done: true})
	var profiled bytes.Buffer
	if err := cp.SaveWithStreams(&profiled); err != nil {
		tb.Fatal(err)
	}

	cs := NewCache()
	for i := 0; i < 3; i++ {
		lane := mkRun(3+i, false).Ambient
		lane.Role, lane.Lane = "r", 1
		cs.storeLane(fmt.Sprintf("lane-%d", i), lane)
		sched := mkRun(2+i, false)
		sched.Sched.Roles = []string{"r"}
		cs.storeSchedule(fmt.Sprintf("sched-%d", i), sched)
	}
	cs.storeRun("S", streamEntry{App: "URL", Packets: 300}, mkRun(2, false))
	var streams bytes.Buffer
	if err := cs.SaveWithStreams(&streams); err != nil {
		tb.Fatal(err)
	}

	images := [][]byte{lean.Bytes(), full.Bytes(), composed.Bytes(), profiled.Bytes(), streams.Bytes()}
	for _, name := range []string{"parent_v4_streams.simcache", "parent_v4_rawchunks.simcache"} {
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			tb.Fatal(err)
		}
		images = append(images, img)
	}
	return images
}

// checkFileLoad loads data through LoadFile — stream sections as
// indexes, entries read on first use — and reads every entry: it must
// never panic or hard-fail past the preamble. With resave, a load that
// reports success must also leave a cache that saves and reloads whole
// (entries dropped at first use included).
func checkFileLoad(t *testing.T, path string, data []byte, resave bool) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	defer c.Release()
	rep, err := c.LoadFile(path)
	if err != nil {
		if len(data) >= len(cacheMagic)+4 && bytes.HasPrefix(data, []byte(cacheMagic)) &&
			binary.LittleEndian.Uint32(data[len(cacheMagic):]) == cacheVersion {
			t.Fatalf("file load of %d bytes: hard error %v, want salvage", len(data), err)
		}
		return
	}
	readAllEntries(c)
	if !resave {
		return
	}
	var buf bytes.Buffer
	if err := c.SaveWithStreams(&buf); err != nil {
		t.Fatalf("cache loaded lazily from %d bytes (%+v) cannot re-save: %v", len(data), rep, err)
	}
	c2 := NewCache()
	if rep2, err := c2.LoadReported(bytes.NewReader(buf.Bytes())); err != nil || !rep2.complete() {
		t.Fatalf("lazily loaded cache re-saved unhealthy: %+v, %v", rep2, err)
	}
	if c2.Stats().Lanes != c.Stats().Lanes || c2.Len() != c.Len() {
		t.Fatalf("re-save of a lazily loaded cache kept %+v of %+v", c2.Stats(), c.Stats())
	}
}

// FuzzCacheLoad throws arbitrary bytes — seeded with every real cache
// encoding plus truncated and bit-flipped mutants of each — at the
// loader. The contract under fuzz: Load never panics, and whenever it
// reports success the resulting cache is coherent enough to save and
// reload cleanly (no truncation, no dropped sections, matching entry
// count). Wrong-but-plausible salvage would surface here as a re-save
// that fails or loses entries.
func FuzzCacheLoad(f *testing.F) {
	for _, img := range fuzzSeedImages(f) {
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(img[:len(img)-1])
		for _, off := range []int{1, 9, len(img) / 3, 2 * len(img) / 3} {
			mut := append([]byte(nil), img...)
			mut[off%len(mut)] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	f.Add([]byte("DDTCACHE"))
	f.Add([]byte("DDTCACHE\x04\x00\x00\x00"))
	f.Add([]byte("DDTCACHE\x63\x00\x00\x00")) // unsupported version

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache()
		rep, err := c.LoadReported(bytes.NewReader(data))
		if err != nil {
			return // a clean rejection is always acceptable
		}
		var buf bytes.Buffer
		if err := c.SaveWithStreams(&buf); err != nil {
			t.Fatalf("cache loaded from %d bytes (%s) cannot re-save: %v", len(data), rep.Format, err)
		}
		c2 := NewCache()
		rep2, err := c2.LoadReported(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-saved cache does not load: %v", err)
		}
		if rep2.Truncated || len(rep2.Dropped) != 0 {
			t.Fatalf("re-saved cache unhealthy: %+v", rep2)
		}
		if c2.Len() != c.Len() {
			t.Fatalf("re-save round trip kept %d of %d entries", c2.Len(), c.Len())
		}
		checkFileLoad(t, filepath.Join(t.TempDir(), "fuzz.simcache"), data, true)
	})
}

// TestCacheLoadMutationSweep is the deterministic core of the fuzz
// contract, run on every plain `go test`: for each real encoding, every
// truncation length and a bit flip at every offset must either load
// (possibly salvaging) or fail cleanly — never panic — and past the
// preamble never hard-fail: a damaged section drops or truncates the
// scan while the rest loads. The same holds for the lazy file load
// (checkFileLoad), entries read on first use included.
func TestCacheLoadMutationSweep(t *testing.T) {
	preamble := len(cacheMagic) + 4
	path := filepath.Join(t.TempDir(), "sweep.simcache")
	for _, img := range fuzzSeedImages(t) {
		for n := 0; n <= len(img); n++ {
			_, err := NewCache().LoadReported(bytes.NewReader(img[:n]))
			if err != nil && n >= preamble {
				t.Fatalf("image truncated to %d bytes: hard error %v, want salvage", n, err)
			}
		}
		for off := 0; off < len(img); off++ {
			mut := append([]byte(nil), img...)
			mut[off] ^= 0xA5
			_, err := NewCache().LoadReported(bytes.NewReader(mut))
			if err != nil && off >= preamble {
				t.Fatalf("image flipped at %d: hard error %v, want salvage or truncation", off, err)
			}
			if inLazyFrame(img, off) {
				checkFileLoad(t, path, mut, false)
			}
		}
		for n := 0; n <= len(img); n += 7 {
			checkFileLoad(t, path, img[:n], false)
		}
	}
}

// inLazyFrame reports whether offset off of a well-formed image lies in
// a frame LoadFile reads lazily (ids 12 and 13), header included.
func inLazyFrame(img []byte, off int) bool {
	for pos := len(cacheMagic) + 4; pos+frameHeaderLen <= len(img); {
		id := img[pos]
		end := pos + frameHeaderLen + int(binary.LittleEndian.Uint64(img[pos+1:pos+9])) + 4
		if id == secEnd || off < pos {
			return false
		}
		if off < end {
			return id == secLanes || id == secScheds
		}
		pos = end
	}
	return false
}
