package explore

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/ddt"
)

// TestLaneCoverGreedy pins the cover's greedy rule: most uncovered
// (role, kind) pairs first, ties to the lowest survivor index, stopping
// once every pair is covered.
func TestLaneCoverGreedy(t *testing.T) {
	roles := []string{"a", "b"}
	sv := func(ka, kb ddt.Kind) Result {
		return Result{Assign: apps.Assignment{"a": ka, "b": kb}}
	}
	survivors := []Result{
		sv(0, 0), // covers a0 b0
		sv(0, 1), // b1 only once a0 is covered
		sv(1, 1), // a1 b1: ties with #0 at first, wins over #1 later
		sv(1, 0), // nothing new after #0 and #2
		sv(2, 2), // a2 b2
	}
	got, _ := laneCover(survivors, roles)
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("cover %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cover %v, want %v", got, want)
		}
	}
}

// TestStep2CapturesEachLaneOnce runs the composed step 2 at several
// worker counts: each configuration runs exactly its lane cover live
// and composes the rest, nothing is pruned, and the results are
// identical to the plain survivors x configurations layout.
func TestStep2CapturesEachLaneOnce(t *testing.T) {
	a, err := netapps.ByName("FlowMon")
	if err != nil {
		t.Fatal(err)
	}
	configs := Configs(a)
	var want []Result
	for _, workers := range []int{1, 3, 8} {
		eng := NewEngine(a, Options{TracePackets: 250, Workers: workers, Compose: true, BoundPrune: true})
		s1, err := eng.Step1(context.Background(), configs[0])
		if err != nil {
			t.Fatal(err)
		}
		before := eng.Stats()
		s2, err := eng.Step2(context.Background(), s1, configs)
		if err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		picked, _ := laneCover(s1.Survivors, eng.roles)
		cover := len(picked)
		if live, wantLive := st.Simulated-before.Simulated, cover*(len(configs)-1); live != wantLive {
			t.Errorf("workers %d: %d live step-2 runs, want cover %d x %d configurations", workers, live, cover, len(configs)-1)
		}
		if s2.Pruned != 0 || s2.Aborted != 0 || st.Pruned != before.Pruned {
			t.Errorf("workers %d: step 2 pruned %d, aborted %d", workers, s2.Pruned, s2.Aborted)
		}
		if want == nil {
			want = s2.Results
			for i, r := range want[len(s1.Survivors):] {
				si, ci := i%len(s1.Survivors), i/len(s1.Survivors)+1
				if r.Config.String() != configs[ci].String() || r.Label() != s1.Survivors[si].Label() {
					t.Fatalf("result %d is %s on %s, want survivor %d on configuration %d", i, r.Label(), r.Config, si, ci)
				}
			}
			continue
		}
		for i := range want {
			if s2.Results[i].Label() != want[i].Label() || s2.Results[i].Vec != want[i].Vec {
				t.Fatalf("workers %d: result %d differs from -workers 1", workers, i)
			}
		}
	}
}
