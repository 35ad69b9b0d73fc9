package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestMain doubles the test binary as the ddt-explore command when
// re-exec'd by the interruption tests, so signal handling is exercised
// against the real cliMain path in a real child process.
func TestMain(m *testing.M) {
	if os.Getenv("BE_DDT_EXPLORE") == "1" {
		os.Exit(cliMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// base returns the minimal CLI config the tests start from.
func base(app string) cliConfig {
	return cliConfig{app: app, packets: 300}
}

func TestRunWritesLog(t *testing.T) {
	c := base("URL")
	c.logPath = filepath.Join(t.TempDir(), "url.log")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(c.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, err := report.ReadResults(f)
	if err != nil {
		t.Fatal(err)
	}
	// 100 step-1 results plus survivors x 5 configurations from step 2.
	if len(results) < 100 {
		t.Fatalf("log holds %d results, want >= 100", len(results))
	}
	for _, r := range results {
		if r.App != "URL" || r.Vec.Energy <= 0 {
			t.Fatalf("bad log record: %+v", r)
		}
	}
}

func TestRunWithCharts(t *testing.T) {
	c := base("DRR")
	c.charts = true
	c.workers = 2
	c.earlyAbort = true
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownApp(t *testing.T) {
	if err := run(context.Background(), base("Quake")); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunBadLogPath(t *testing.T) {
	c := base("URL")
	c.logPath = "/nonexistent-dir/x.log"
	if err := run(context.Background(), c); err == nil {
		t.Fatal("unwritable log path accepted")
	}
}

func TestRunWritesCSV(t *testing.T) {
	c := base("URL")
	c.csvPath = filepath.Join(t.TempDir(), "url.csv")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.csvPath)
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 101 {
		t.Fatalf("%d CSV records, want header + >=100 rows", len(records))
	}
}

func TestRunPersistsSimulationCache(t *testing.T) {
	c := base("URL")
	c.cachePath = filepath.Join(t.TempDir(), "url.simcache")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(c.cachePath); err != nil {
		t.Fatalf("cache file not written: %v", err)
	}
	// A second run must reload the cache and produce the same artifacts.
	c.logPath = filepath.Join(t.TempDir(), "url.log")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(c.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, err := report.ReadResults(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 100 {
		t.Fatalf("warm run logged %d results, want >= 100", len(results))
	}
}

func TestRunReplayCachePersistsStreams(t *testing.T) {
	c := base("URL")
	c.replayCache = filepath.Join(t.TempDir(), "url.replay")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	replayInfo, err := os.Stat(c.replayCache)
	if err != nil {
		t.Fatalf("replay cache not written: %v", err)
	}
	// A results-only cache of the same run must be much smaller than the
	// stream-bearing one.
	lean := base("URL")
	lean.cachePath = filepath.Join(t.TempDir(), "url.simcache")
	if err := run(context.Background(), lean); err != nil {
		t.Fatal(err)
	}
	leanInfo, err := os.Stat(lean.cachePath)
	if err != nil {
		t.Fatal(err)
	}
	if replayInfo.Size() <= leanInfo.Size() {
		t.Fatalf("replay cache (%dB) not larger than results-only cache (%dB); streams missing",
			replayInfo.Size(), leanInfo.Size())
	}
	// Reloading the replay cache must work.
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
}

func TestRunCacheFlagsExclusive(t *testing.T) {
	c := base("URL")
	c.cachePath = filepath.Join(t.TempDir(), "a")
	c.replayCache = filepath.Join(t.TempDir(), "b")
	if err := run(context.Background(), c); err == nil {
		t.Fatal("-cache together with -replay-cache accepted")
	}
}

func TestRunEvaluatesPlatforms(t *testing.T) {
	c := base("URL")
	c.platforms = "all"
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	c.platforms = "tiny-4K-64K, midrange-32K-512K"
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	c.platforms = "no-such-platform"
	if err := run(context.Background(), c); err == nil {
		t.Fatal("unknown platform name accepted")
	}
}

func TestRunWritesProfiles(t *testing.T) {
	c := base("URL")
	c.cpuProfile = filepath.Join(t.TempDir(), "cpu.pprof")
	c.memProfile = filepath.Join(t.TempDir(), "mem.pprof")
	if err := run(context.Background(), c); err != nil {
		t.Fatal(err)
	}
	// CPU profile is finalized by StopCPUProfile when run returns; the
	// file must exist and the heap profile must be non-empty.
	if _, err := os.Stat(c.cpuProfile); err != nil {
		t.Fatalf("cpu profile missing: %v", err)
	}
	info, err := os.Stat(c.memProfile)
	if err != nil {
		t.Fatalf("heap profile missing: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("heap profile empty")
	}
}

// TestProgressPrinter pins both progress renderings: a terminal gets
// one line redrawn in place per whole percent, finished by a newline;
// a log file gets one line per whole 10% step (0% included) of each
// step's total.
func TestProgressPrinter(t *testing.T) {
	var tty, log strings.Builder
	pt, pl := progressPrinter(&tty, true), progressPrinter(&log, false)
	for _, total := range []int{200, 3} {
		for done := 1; done <= total; done++ {
			pt(done, total)
			pl(done, total)
		}
	}
	if got := strings.Count(tty.String(), "\r"); got != 101+3 {
		t.Errorf("terminal progress redrew %d times, want 104", got)
	}
	if strings.Count(tty.String(), "\n") != 2 || !strings.HasSuffix(tty.String(), "\rstreaming 3/3 simulations (100%)\n") {
		t.Errorf("terminal progress lines:\n%q", tty.String())
	}
	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if strings.Contains(log.String(), "\r") || len(lines) != 11+3 {
		t.Fatalf("log progress:\n%s", log.String())
	}
	for i, want := range []string{"streaming 20/200 simulations (10%)", "streaming 200/200 simulations (100%)", "streaming 1/3 simulations (30%)", "streaming 3/3 simulations (100%)"} {
		if !slices.Contains(lines, want) {
			t.Errorf("log progress lacks line %d %q:\n%s", i, want, log.String())
		}
	}
}
