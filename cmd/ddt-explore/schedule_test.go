package main

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var simulatedRe = regexp.MustCompile(`engine simulated (\d+),`)

// scheduleFree drops the stdout lines that legitimately depend on how a
// run was scheduled or cached — the wall-time line (which carries the
// engine stats), the branch-and-bound summary and the cache-save line —
// leaving the report itself.
func scheduleFree(out string) string {
	var keep []string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "exploration wall time:") ||
			strings.HasPrefix(l, "branch-and-bound:") ||
			strings.HasPrefix(l, "simulation cache saved to ") {
			continue
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "\n")
}

// TestScheduleIndependentReport pins the composed campaign's report as a
// pure function of its inputs: the same stdout, minus the scheduling
// lines, at every worker count, with progress output on, from a cold and
// a warm replay cache, and without bound pruning. It also pins that the
// number of live runs does not depend on the worker count — jobs whose
// lanes are being captured wait for them instead of running live.
func TestScheduleIndependentReport(t *testing.T) {
	for _, app := range []string{"FlowMon", "DRR"} {
		t.Run(app, func(t *testing.T) {
			cache := filepath.Join(t.TempDir(), "run.replay")
			explore := func(args ...string) (string, int) {
				t.Helper()
				args = append([]string{"-app", app, "-packets", "300", "-compose"}, args...)
				out, err := childExplore(args...).Output()
				if err != nil {
					t.Fatalf("%v: %v", args, err)
				}
				m := simulatedRe.FindSubmatch(out)
				if m == nil {
					t.Fatalf("%v: no engine stats line in\n%s", args, out)
				}
				n, _ := strconv.Atoi(string(m[1]))
				return scheduleFree(string(out)), n
			}
			want, wantSim := explore("-workers", "1")
			if !strings.Contains(want, "cross-configuration Pareto-optimal set") {
				t.Fatalf("no step-3 report in\n%s", want)
			}
			variants := [][]string{
				{"-workers", "2"},
				{"-workers", "4"},
				{"-workers", "8"},
				{"-workers", "4", "-progress"},
				{"-workers", "2", "-replay-cache", cache}, // cold
				{"-workers", "8", "-replay-cache", cache}, // warm
				{"-workers", "2", "-noprune"},
			}
			for _, v := range variants {
				got, sim := explore(v...)
				if got != want {
					t.Errorf("%v: report differs from -workers 1\n--- got ---\n%s\n--- want ---\n%s", v, got, want)
				}
				if len(v) == 2 && sim != wantSim {
					t.Errorf("%v: engine simulated %d, -workers 1 simulated %d", v, sim, wantSim)
				}
			}
		})
	}
}
