package explore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps/netapps"
)

// frameSpan is one framed section of a cache image: its id, where its
// payload starts and how long it runs.
type frameSpan struct {
	id       byte
	payload  int
	ln       int
	indexEnd int // stream sections: first chunk byte
}

// imageFrames walks a cache image's frames (up to the end marker).
func imageFrames(t *testing.T, img []byte) []frameSpan {
	t.Helper()
	var fs []frameSpan
	for off := len(cacheMagic) + 4; ; {
		id := img[off]
		ln := int(binary.LittleEndian.Uint64(img[off+1 : off+9]))
		if id == secEnd {
			return fs
		}
		f := frameSpan{id: id, payload: off + frameHeaderLen, ln: ln}
		if id == secLanes || id == secScheds {
			f.indexEnd = f.payload + 12 + int(binary.LittleEndian.Uint64(img[f.payload:f.payload+8]))
		}
		fs = append(fs, f)
		off = f.payload + ln + 4
	}
}

// imageEntries decodes the entries of a stream frame of img, each with
// the absolute offset and length of its chunk bytes.
func imageEntries(t *testing.T, img []byte, f frameSpan) []loadedStream {
	t.Helper()
	es, err := decodeStreamSection(payloadAt(img), int64(f.payload), int64(f.ln), f.id, &cacheFile{})
	if err != nil {
		t.Fatalf("decoding %s frame: %v", sectionName(f.id), err)
	}
	return es
}

// readAllEntries looks up every lane and schedule entry the cache
// holds, reading the unread ones, and returns the keys whose lookup
// failed (dropped entries), sorted.
func readAllEntries(c *Cache) []string {
	c.sm.RLock()
	lanes := slices.Collect(maps.Keys(c.lanes))
	scheds := slices.Collect(maps.Keys(c.scheds))
	c.sm.RUnlock()
	var missing []string
	for _, k := range lanes {
		if _, ok := c.laneAt(k); !ok {
			missing = append(missing, k)
		}
	}
	for _, k := range scheds {
		if _, ok := c.schedAt(k); !ok {
			missing = append(missing, k)
		}
	}
	slices.Sort(missing)
	return missing
}

// warnings collects a cache's warnings.
type warnings struct {
	mu   sync.Mutex
	msgs []string
}

func (w *warnings) add(msg string) {
	w.mu.Lock()
	w.msgs = append(w.msgs, msg)
	w.mu.Unlock()
}

func (w *warnings) list() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Clone(w.msgs)
}

// renderCampaign explores a's campaign on cache as the CLI does with
// -compose and renders every live step-1 survivor and step-2 result.
func renderCampaign(t *testing.T, cache *Cache) (string, EngineStats) {
	t.Helper()
	a, err := netapps.ByName("DRR")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(a, Options{TracePackets: 200, Workers: 2, Compose: true, BoundPrune: true, Cache: cache})
	s1, s2, err := eng.Explore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng.FinishCampaign()
	var b strings.Builder
	for _, rs := range [][]Result{s1.Survivors, s2.Results} {
		for _, r := range rs {
			if !r.Aborted {
				fmt.Fprintf(&b, "%s %s %+v\n", r.Config, r.Assign, r.Vec)
			}
		}
		b.WriteString("--\n")
	}
	return b.String(), eng.Stats()
}

// coldDRRFile runs one cold DRR -compose campaign and saves its replay
// cache without the finished results to a fresh file: a warm rerun
// from it composes every combination, so it reads lanes and schedules.
// It returns the path and the image.
func coldDRRFile(t *testing.T) (string, []byte) {
	t.Helper()
	c := NewCache()
	renderCampaign(t, c)
	c.m = make(map[string]cacheEntry)
	path := filepath.Join(t.TempDir(), "drr.replay")
	if err := c.SaveFile(path, true); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, img
}

// flipByte xors one byte of the file at path in place (same inode).
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xA5
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestLazyLoadFlipDropsSectionOrEntry flips single bytes of the lanes
// and schedules frames of a DRR -compose cache file and loads it
// lazily: a flip in a section's index header or index drops that
// section at load; a flip in an entry's chunk bytes loads completely
// and drops exactly that entry, with a warning, at first use; a flip in
// the frame's trailing CRC (which a lazy load never reads, every byte
// it guards being covered by the index and entry CRCs) drops nothing.
func TestLazyLoadFlipDropsSectionOrEntry(t *testing.T) {
	path, img := coldDRRFile(t)
	for _, f := range imageFrames(t, img) {
		if f.id != secLanes && f.id != secScheds {
			continue
		}
		name := sectionName(f.id)
		es := imageEntries(t, img, f)
		if len(es) < 2 {
			t.Fatalf("%s frame holds %d entries, want several", name, len(es))
		}
		offs := map[int]string{} // offset -> entry key, "" outside entries
		// The index header, then a stride through the index.
		for off := f.payload; off < f.indexEnd; off++ {
			if off < f.payload+12 || (off-f.payload)%11 == 0 || off == f.indexEnd-1 {
				offs[off] = ""
			}
		}
		for _, e := range es {
			u := e.unread
			offs[int(u.off)] = e.key
			offs[int(u.off+u.size/2)] = e.key
			offs[int(u.off+u.size-1)] = e.key
		}
		for off := f.payload + f.ln; off < f.payload+f.ln+4; off++ {
			offs[off] = ""
		}
		for _, off := range slices.Sorted(maps.Keys(offs)) {
			key := offs[off]
			flipByte(t, path, int64(off))
			c := NewCache()
			var w warnings
			c.SetWarn(w.add)
			rep, err := c.LoadFile(path)
			if err != nil {
				t.Fatalf("%s flip at %d: load error %v", name, off, err)
			}
			switch {
			case off < f.indexEnd:
				if rep.Truncated || !slices.Equal(rep.Dropped, []string{name}) {
					t.Fatalf("%s index flip at %d: report %+v, want the section dropped", name, off, rep)
				}
			default:
				if !rep.complete() {
					t.Fatalf("%s chunk flip at %d: load salvaged %+v, want a complete load", name, off, rep)
				}
				var want []string
				if key != "" {
					want = []string{key}
				}
				if got := readAllEntries(c); !slices.Equal(got, want) {
					t.Fatalf("%s flip at %d: entries dropped at first use %q, want %q", name, off, got, want)
				}
				if n := len(w.list()); n != len(want) {
					t.Fatalf("%s flip at %d: %d warnings %q, want %d", name, off, n, w.list(), len(want))
				}
			}
			c.Release()
			flipByte(t, path, int64(off))
		}
	}
}

// TestLazyLoadCorruptEntryRederived corrupts one chunk byte of every
// lane and schedule entry of a cold DRR -compose file: the first warm
// rerun, which composes from them, drops each entry it reads instead of
// serving its bytes, re-derives what it needs, and reports exactly what
// the rerun on the intact file reports; the file it saves loads whole.
func TestLazyLoadCorruptEntryRederived(t *testing.T) {
	path, img := coldDRRFile(t)
	want, wantSt := renderCampaign(t, loadClean(t, path))
	if wantSt.Composed == 0 {
		t.Fatal("warm rerun on the intact file composed nothing: not probative")
	}
	for _, f := range imageFrames(t, img) {
		if f.id == secLanes || f.id == secScheds {
			for _, e := range imageEntries(t, img, f) {
				flipByte(t, path, e.unread.off+e.unread.size/2)
			}
		}
	}
	c := NewCache()
	var w warnings
	c.SetWarn(w.add)
	rep, err := c.LoadFile(path)
	if err != nil || !rep.complete() {
		t.Fatalf("load: %+v, %v", rep, err)
	}
	t.Cleanup(c.Release)
	got, st := renderCampaign(t, c)
	if got != want {
		t.Fatalf("rerun on corrupt entries reports\n%s\nwant\n%s", got, want)
	}
	if len(w.list()) == 0 {
		t.Fatal("no corrupt entry was dropped")
	}
	if st.Simulated <= wantSt.Simulated {
		t.Fatalf("rerun simulated %d jobs, the intact rerun %d: nothing was re-derived", st.Simulated, wantSt.Simulated)
	}
	out := filepath.Join(t.TempDir(), "resaved.replay")
	if err := c.SaveFile(out, true); err != nil {
		t.Fatal(err)
	}
	re := NewCache()
	if rep, err := re.LoadReported(mustOpen(t, out)); err != nil || !rep.complete() {
		t.Fatalf("re-saved file: %+v, %v", rep, err)
	}
}

// TestLazyLoadTruncatedAfterLoad cuts the file short after a lazy load,
// mid-way through the lanes chunks: every lane whose bytes lie past the
// cut is dropped at first use (a short read), every lane before it
// reads intact.
func TestLazyLoadTruncatedAfterLoad(t *testing.T) {
	path, img := coldDRRFile(t)
	c := loadClean(t, path)
	var w warnings
	c.SetWarn(w.add)
	var lanes frameSpan
	for _, f := range imageFrames(t, img) {
		if f.id == secLanes {
			lanes = f
		}
	}
	cut := int64(lanes.indexEnd + (lanes.payload+lanes.ln-lanes.indexEnd)/2)
	var want []string
	for _, e := range imageEntries(t, img, lanes) {
		if e.unread.off+e.unread.size > cut {
			want = append(want, e.key)
		}
	}
	c.sm.RLock()
	for k := range c.scheds { // every schedule lies past the lanes
		want = append(want, k)
	}
	c.sm.RUnlock()
	slices.Sort(want)
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	if got := readAllEntries(c); !slices.Equal(got, want) {
		t.Fatalf("truncated file: dropped %q, want %q", got, want)
	}
	if len(w.list()) != len(want) {
		t.Fatalf("%d warnings for %d dropped entries", len(w.list()), len(want))
	}
}

// TestLazyCopyThroughDropsCorruptEntry damages one unread lane on disk
// after a lazy load and saves the cache elsewhere: the save copies the
// unread entries from the open file, drops the damaged one with a
// warning and writes every other entry byte for byte.
func TestLazyCopyThroughDropsCorruptEntry(t *testing.T) {
	path, img := coldDRRFile(t)
	c := loadClean(t, path)
	var w warnings
	c.SetWarn(w.add)
	var victim loadedStream
	for _, f := range imageFrames(t, img) {
		if f.id == secLanes {
			es := imageEntries(t, img, f)
			victim = es[len(es)/2]
		}
	}
	flipByte(t, path, victim.unread.off+victim.unread.size-1)
	out := filepath.Join(t.TempDir(), "copy.replay")
	if err := c.SaveFile(out, true); err != nil {
		t.Fatal(err)
	}
	if msgs := w.list(); len(msgs) != 1 || !strings.Contains(msgs[0], victim.key) {
		t.Fatalf("warnings %q, want one naming %q", msgs, victim.key)
	}
	saved, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	entries := func(img []byte) map[string][]byte {
		m := map[string][]byte{}
		for _, f := range imageFrames(t, img) {
			if f.id == secLanes || f.id == secScheds {
				for _, e := range imageEntries(t, img, f) {
					m[e.key] = img[e.unread.off : e.unread.off+e.unread.size]
				}
			}
		}
		return m
	}
	want := entries(img)
	delete(want, victim.key)
	if got := entries(saved); !reflect.DeepEqual(got, want) {
		t.Fatalf("copy holds %d entries, want the %d intact ones byte for byte", len(got), len(want))
	}
}

// openFDs counts this process's descriptors open on path.
func openFDs(t *testing.T, path string) int {
	t.Helper()
	des, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list open descriptors: %v", err)
	}
	n := 0
	for _, de := range des {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", de.Name())); err == nil && target == path {
			n++
		}
	}
	return n
}

// TestLazyLoadReleasesFile pins the file's lifetime: a lazy load keeps
// one descriptor open while unread entries remain, reading every entry
// closes it, and Release closes it early, dropping what was unread.
func TestLazyLoadReleasesFile(t *testing.T) {
	path, _ := coldDRRFile(t)
	c := loadClean(t, path)
	if n := openFDs(t, path); n != 1 {
		t.Fatalf("%d descriptors open after a lazy load, want 1", n)
	}
	if missing := readAllEntries(c); len(missing) != 0 {
		t.Fatalf("entries %q failed to read", missing)
	}
	if n := openFDs(t, path); n != 0 {
		t.Fatalf("%d descriptors open with every entry read, want 0", n)
	}

	c = NewCache()
	if _, err := c.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	lanes := c.Stats().Lanes
	c.Release()
	if n := openFDs(t, path); n != 0 {
		t.Fatalf("%d descriptors open after Release, want 0", n)
	}
	if st := c.Stats(); lanes == 0 || st.Lanes != 0 || st.Schedules != 0 {
		t.Fatalf("Release kept unread entries: %d lanes before, %+v after", lanes, st)
	}
	if wrote, err := c.SaveFileReported(path, true); err != nil || !wrote {
		t.Fatalf("save after Release dropped entries: wrote=%v err=%v, want a rewrite", wrote, err)
	}
}

// TestLoadEvictionOrderDeterministic loads one file many times into
// caches whose stream budget forces evictions during the load: the
// entries that survive must be the same every time, on both load paths
// — merges feed the FIFO eviction orders in key order, not in map
// iteration order.
func TestLoadEvictionOrderDeterministic(t *testing.T) {
	prof := mkReuseProfile(t)
	src := NewCache()
	var laneBytes int64
	for i := 0; i < 16; i++ {
		lane := mkRun(300+i, false).Ambient
		lane.Role, lane.Lane = "r", 1
		src.storeLane(fmt.Sprintf("lane-%02d", i), lane)
		laneBytes += int64(lane.SizeBytes())
		src.storeLaneProfile(laneProfileKey(fmt.Sprintf("lane-%02d", i), prof.LineBytes), prof)
	}
	var img bytes.Buffer
	if err := src.SaveWithStreams(&img); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "evict.replay")
	if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	survivors := func(c *Cache) string {
		c.sm.RLock()
		defer c.sm.RUnlock()
		return fmt.Sprint(slices.Sorted(maps.Keys(c.lanes)), slices.Sorted(maps.Keys(c.lprofiles)))
	}
	var first string
	for i := 0; i < 20; i++ {
		for _, lazy := range []bool{false, true} {
			c := NewCache()
			c.SetStreamBudget(laneBytes / 2)
			var err error
			if lazy {
				_, err = c.LoadFile(path)
			} else {
				err = c.Load(bytes.NewReader(img.Bytes()))
			}
			if err != nil {
				t.Fatal(err)
			}
			got := survivors(c)
			c.Release()
			if first == "" {
				first = got
				if st := c.Stats(); st.Lanes == 16 {
					t.Fatalf("budget evicted nothing: %+v", st)
				}
			} else if got != first {
				t.Fatalf("load %d (lazy=%v) kept %s, the first load kept %s", i, lazy, got, first)
			}
		}
	}
}

// TestLoadRawChunkLayout pins the read-only stream layout without index
// and entry CRCs (ids 9 and 10): a file written in it loads completely
// on both paths, eagerly either way, and saving it again writes the
// CRC-carrying layout (ids 12 and 13) holding the same stores.
func TestLoadRawChunkLayout(t *testing.T) {
	path := filepath.Join("testdata", "parent_v4_rawchunks.simcache")
	eager := NewCache()
	rep, ids, err := eager.loadReported(mustOpen(t, path), -1, nil)
	if err != nil || !rep.complete() {
		t.Fatalf("raw-chunk file: %+v, %v", rep, err)
	}
	if !slices.Contains(ids, secLanesRaw) || !slices.Contains(ids, secSchedsRaw) {
		t.Fatalf("test file holds sections %v, want the raw-chunk lanes and schedules", ids)
	}
	file := loadClean(t, path)
	if len(file.unreadLanes)+len(file.unreadScheds) != 0 {
		t.Fatal("raw-chunk sections loaded lazily")
	}
	want := eager.Stats()
	if want.Lanes != 3 || want.Schedules != 1 || want.Streams != 1 || want.Entries != 1 || want.LaneProfiles != 1 {
		t.Fatalf("raw-chunk file loaded as %+v", want)
	}
	if got := file.Stats(); got != want {
		t.Fatalf("LoadFile stats %+v, LoadReported %+v", got, want)
	}
	var img bytes.Buffer
	if err := eager.SaveWithStreams(&img); err != nil {
		t.Fatal(err)
	}
	re := NewCache()
	rep, ids, err = re.loadReported(bytes.NewReader(img.Bytes()), -1, nil)
	if err != nil || !rep.complete() {
		t.Fatalf("re-saved file: %+v, %v", rep, err)
	}
	if slices.Contains(ids, secLanesRaw) || slices.Contains(ids, secSchedsRaw) ||
		!slices.Contains(ids, secLanes) || !slices.Contains(ids, secScheds) {
		t.Fatalf("re-saved file holds sections %v, want the CRC-carrying layout only", ids)
	}
	if got := re.Stats(); got != want {
		t.Fatalf("round trip stats %+v, want %+v", got, want)
	}
	for k, s := range eager.lanes {
		if !reflect.DeepEqual(re.lanes[k].Chunks, s.Chunks) {
			t.Fatalf("lane %q chunks changed in the round trip", k)
		}
	}
	for k, e := range eager.scheds {
		if !reflect.DeepEqual(re.scheds[k].Ambient.Chunks, e.Ambient.Chunks) || !reflect.DeepEqual(re.scheds[k].Summary, e.Summary) {
			t.Fatalf("schedule %q changed in the round trip", k)
		}
	}
}
