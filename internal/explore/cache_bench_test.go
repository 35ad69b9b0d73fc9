package explore_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps/netapps"
	"repro/internal/explore"
)

// BenchmarkCacheLoadSave measures the cache I/O layer on the replay
// cache a FlowMon -compose campaign leaves behind (built in-process at
// 1000 packets: a ~24 MB file, nearly all of it lane chunks):
//
//   - load: LoadFile of the file into a fresh cache — read, CRC32C and
//     decode everything but the lanes' and schedules' chunks, which stay
//     unread on disk: a settled warm rerun's setup cost;
//   - load+materialize: LoadFile, then a lookup of every lane and
//     schedule, which reads and verifies every chunk — the cost of a
//     run that does need every stream, to set against the eager load
//     LoadFile did before stream sections loaded lazily;
//   - save: the sectioned encoding of the loaded and materialized cache
//     (SaveWithStreams to io.Discard), the write side without the
//     filesystem's fsync.
func BenchmarkCacheLoadSave(b *testing.B) {
	a, err := netapps.ByName("FlowMon")
	if err != nil {
		b.Fatal(err)
	}
	src := explore.NewCache()
	eng := explore.NewEngine(a, explore.Options{TracePackets: 1000, Workers: 2, Compose: true, BoundPrune: true, Cache: src})
	if _, _, err := eng.Explore(context.Background()); err != nil {
		b.Fatal(err)
	}
	eng.FinishCampaign()
	path := filepath.Join(b.TempDir(), "flowmon.replay")
	if err := src.SaveFile(path, true); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B) {
		b.SetBytes(fi.Size())
		b.ReportMetric(float64(fi.Size())/1e6, "file-MB")
		b.ReportMetric(float64(src.Stats().Lanes), "lanes")
	}

	b.Run("load", func(b *testing.B) {
		report(b)
		for i := 0; i < b.N; i++ {
			c := explore.NewCache()
			rep, err := c.LoadFile(path)
			if err != nil || rep.Truncated || len(rep.Dropped) != 0 {
				b.Fatalf("load: %+v, %v", rep, err)
			}
			c.Release()
		}
	})
	b.Run("load+materialize", func(b *testing.B) {
		report(b)
		for i := 0; i < b.N; i++ {
			c := explore.NewCache()
			rep, err := c.LoadFile(path)
			if err != nil || rep.Truncated || len(rep.Dropped) != 0 {
				b.Fatalf("load: %+v, %v", rep, err)
			}
			if n := explore.ReadAllStreams(c); n != 0 {
				b.Fatalf("%d lanes or schedules failed to read", n)
			}
		}
	})
	b.Run("save", func(b *testing.B) {
		c := explore.NewCache()
		if _, err := c.LoadFile(path); err != nil {
			b.Fatal(err)
		}
		if n := explore.ReadAllStreams(c); n != 0 {
			b.Fatalf("%d lanes or schedules failed to read", n)
		}
		var sink countingWriter
		b.ResetTimer()
		report(b)
		for i := 0; i < b.N; i++ {
			if err := c.SaveWithStreams(&sink); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if sink.n != int64(b.N)*fi.Size() {
			b.Fatalf("saved %d bytes over %d saves, want %d each", sink.n, b.N, fi.Size())
		}
	})
}

// countingWriter discards what it is given, counting the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
