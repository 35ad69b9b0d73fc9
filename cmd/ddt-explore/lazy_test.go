package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/explore"
	"repro/internal/faultio"
)

// countingFS opens files for reading and counts every byte read through
// them. With eager set its files offer sequential reads only, which
// makes the cache load read every section whole.
type countingFS struct {
	n     atomic.Int64
	eager bool
}

func (fs *countingFS) Open(name string) (faultio.ReadFile, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	if fs.eager {
		return &sequentialFile{f, &fs.n}, nil
	}
	return &countingFile{f, &fs.n}, nil
}

func (fs *countingFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

type countingFile struct {
	*os.File
	n *atomic.Int64
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.n.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.n.Add(int64(n))
	return n, err
}

type sequentialFile struct {
	f *os.File
	n *atomic.Int64
}

func (f *sequentialFile) Read(p []byte) (int, error) {
	n, err := f.f.Read(p)
	f.n.Add(int64(n))
	return n, err
}

func (f *sequentialFile) Close() error { return f.f.Close() }
func (f *sequentialFile) Name() string { return f.f.Name() }

// captureStdout runs f with os.Stdout sent to a file and returns what f
// wrote there.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout-*")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = old }()
	f()
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// streamFrames returns the payloads of a cache image's lanes and
// schedules frames (ids 12 and 13) and the bytes of their entry chunks.
func streamFrames(t *testing.T, img []byte) (payloads [][]byte, chunkBytes int64) {
	t.Helper()
	for off := 12; ; {
		id := img[off]
		ln := int(binary.LittleEndian.Uint64(img[off+1 : off+9]))
		if id == 0xFF {
			return payloads, chunkBytes
		}
		if id == 12 || id == 13 {
			p := img[off+13 : off+13+ln]
			payloads = append(payloads, p)
			chunkBytes += int64(ln) - 12 - int64(binary.LittleEndian.Uint64(p[:8]))
		}
		off += 13 + ln + 4
	}
}

// engineLine is the engine-stats part of the wall-time line.
func engineLine(out string) string {
	i := strings.Index(out, "(budget ")
	if i < 0 {
		return ""
	}
	line, _, _ := strings.Cut(out[i:], "\n")
	return line
}

// TestWarmRerunReadsOnlyIndexes pins the lazy warm rerun end to end.
// The first rerun after a cold run composes (bound pruning off), so it
// reads lanes: it prints the same report and engine stats as the same
// rerun loaded eagerly, and saves an equivalent file. A settled rerun
// prints the reference report, leaves the file's bytes, inode and
// modification time untouched, and reads only the lanes it uses: none
// for a flat scan, whose read stays within the file minus its stream
// chunks; the reference configuration's for branch and bound.
func TestWarmRerunReadsOnlyIndexes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flowmon.replay")
	c := base("FlowMon")
	c.compose = true
	c.replayCache = path
	var ref string
	captureStderr(t, func() {
		ref = captureStdout(t, func() {
			if err := run(context.Background(), c); err != nil {
				t.Fatal(err)
			}
		})
	})
	cold, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The first warm rerun, lazily and eagerly, each on its own copy.
	// Without bound pruning it must compose the combinations the cold
	// run pruned, so it reads lanes.
	rerun := func(fs faultio.ReadFS, file string) (string, []byte) {
		t.Helper()
		if err := os.WriteFile(file, cold, 0o644); err != nil {
			t.Fatal(err)
		}
		rc := c
		rc.replayCache, rc.cacheFS, rc.noprune = file, fs, true
		var out string
		captureStderr(t, func() {
			out = captureStdout(t, func() {
				if err := run(context.Background(), rc); err != nil {
					t.Fatal(err)
				}
			})
		})
		saved, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		return out, saved
	}
	lazyOut, lazySaved := rerun(nil, path)
	eagerOut, eagerSaved := rerun(&countingFS{eager: true}, filepath.Join(dir, "eager.replay"))
	if scheduleFree(lazyOut) != scheduleFree(eagerOut) || engineLine(lazyOut) != engineLine(eagerOut) {
		t.Fatalf("lazy first rerun printed\n%s\nthe eager one\n%s", lazyOut, eagerOut)
	}
	if !strings.Contains(engineLine(lazyOut), " composed ") || strings.Contains(engineLine(lazyOut), " composed 0,") {
		t.Fatalf("first warm rerun composed nothing, so read no lanes: %s", engineLine(lazyOut))
	}
	// Lanes must match byte for byte; a schedule's index row carries its
	// summary's event map, which gob writes in map order, so schedules
	// match on their chunk bytes.
	lazyFrames, _ := streamFrames(t, lazySaved)
	eagerFrames, _ := streamFrames(t, eagerSaved)
	chunksOf := func(p []byte) []byte { return p[12+binary.LittleEndian.Uint64(p[:8]):] }
	if len(lazyFrames) != 2 || len(eagerFrames) != 2 || !bytes.Equal(lazyFrames[0], eagerFrames[0]) ||
		!bytes.Equal(chunksOf(lazyFrames[1]), chunksOf(eagerFrames[1])) {
		t.Fatal("the lazy and the eager rerun saved different lanes or schedules")
	}
	stats := func(img []byte) explore.CacheStats {
		cache := explore.NewCache()
		if rep, err := cache.LoadReported(bytes.NewReader(img)); err != nil || len(rep.Dropped) != 0 || rep.Truncated {
			t.Fatalf("saved file loads as %+v, %v", rep, err)
		}
		return cache.Stats()
	}
	if stats(lazySaved) != stats(eagerSaved) {
		t.Fatalf("lazy rerun saved %+v, the eager one %+v", stats(lazySaved), stats(eagerSaved))
	}

	// A settled branch-and-bound rerun reads, of all the lanes, only
	// those of the reference configuration: its search builds its
	// footprint floor from them.
	read, data := settledRerun(t, c, ref)
	if _, chunks := streamFrames(t, data); read >= int64(len(data))-chunks/2 {
		t.Fatalf("settled rerun read %d of the file's %d bytes (%d of them stream chunks)", read, len(data), chunks)
	}
	// A settled flat-scan rerun uses no lane at all: it reads the
	// indexes and the other sections, and no chunk.
	np := c
	np.noprune, np.cacheFS = true, nil
	np.replayCache = filepath.Join(dir, "noprune.replay")
	var npRef string
	captureStderr(t, func() {
		npRef = captureStdout(t, func() {
			if err := run(context.Background(), np); err != nil {
				t.Fatal(err)
			}
		})
	})
	read, data = settledRerun(t, np, npRef)
	_, chunks := streamFrames(t, data)
	const slack = 256 << 10 // read-ahead of the buffered frame scan
	if limit := int64(len(data)) - chunks + slack; read > limit {
		t.Fatalf("settled flat-scan rerun read %d of the file's %d bytes (%d of them stream chunks), want at most %d",
			read, len(data), chunks, limit)
	}
}

// settledRerun reruns c until its cache file settles, then once more
// through a byte-counting filesystem. That last run must print ref's
// report, simulate nothing and leave the file's bytes, inode and
// modification time untouched. It returns the bytes the run read and
// the file.
func settledRerun(t *testing.T, c cliConfig, ref string) (int64, []byte) {
	t.Helper()
	settled := false
	for i := 0; i < 3 && !settled; i++ {
		stderr := captureStderr(t, func() {
			captureStdout(t, func() {
				if err := run(context.Background(), c); err != nil {
					t.Fatal(err)
				}
			})
		})
		settled = strings.Contains(stderr, "is unchanged; not rewritten")
	}
	if !settled {
		t.Fatal("three warm reruns still rewrote the cache file")
	}
	data, err := os.ReadFile(c.replayCache)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(c.replayCache)
	if err != nil {
		t.Fatal(err)
	}
	fs := &countingFS{}
	c.cacheFS = fs
	var out string
	captureStderr(t, func() {
		out = captureStdout(t, func() {
			if err := run(context.Background(), c); err != nil {
				t.Fatal(err)
			}
		})
	})
	if scheduleFree(out) != scheduleFree(ref) {
		t.Fatalf("settled rerun printed\n%s\nthe cold run\n%s", out, ref)
	}
	if !strings.Contains(out, "engine simulated 0,") {
		t.Fatalf("settled rerun simulated jobs:\n%s", out)
	}
	assertFileKept(t, c.replayCache, data, info)
	return fs.n.Load(), data
}
