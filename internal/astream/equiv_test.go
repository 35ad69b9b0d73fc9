package astream_test

import (
	"math/rand"
	"testing"

	"repro/internal/astream"
	"repro/internal/ddt"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/sweep"
)

// The replay-equivalence property: for random DDT operation sequences,
// replaying a whole-run capture (a one-lane composed stream) reproduces the live memsim.Counts,
// cycles and energy EXACTLY — bitwise — for every platform in
// sweep.DefaultPlatforms(). This is the theorem the whole capture-once /
// replay-many design rests on, checked across all ten container kinds,
// both capture-time heap/hierarchy wirings and every default platform
// geometry (sizes, line sizes, associativities).

// ddtOps drives a random but deterministic operation sequence against a
// list of the given kind on p: appends, indexed reads/writes, inserts,
// removals, finds and clears, with op charges like a real application.
func ddtOps(p *platform.Platform, kind ddt.Kind, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	env := &ddt.Env{Heap: p.Heap, Mem: p.Mem}
	type rec struct {
		Key uint32
		Pad [3]uint32
	}
	l := ddt.New[rec](kind, env, 16)
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 4 || l.Len() == 0:
			l.Append(rec{Key: uint32(i)})
		case op < 6:
			idx := rng.Intn(l.Len())
			v := l.Get(idx)
			v.Key++
			l.Set(idx, v)
			env.Op(3)
		case op < 7:
			l.InsertAt(rng.Intn(l.Len()+1), rec{Key: uint32(i)})
		case op < 8:
			l.RemoveAt(rng.Intn(l.Len()))
		case op < 9:
			want := uint32(rng.Intn(n))
			ddt.Find(l, env, 2, func(v rec) bool { return v.Key == want })
		default:
			if rng.Intn(20) == 0 {
				l.Clear()
			} else {
				l.Iterate(func(i int, v rec) bool { env.Op(1); return i < 64 })
			}
		}
	}
}

// captureDDT records ddtOps on a fresh default platform as a whole-run
// capture: the one-token schedule and the run's single lane.
func captureDDT(kind ddt.Kind, seed int64, n int) (*astream.Schedule, []*astream.SubStream) {
	p := platform.New(memsim.DefaultConfig())
	cr := p.CaptureRun()
	ddtOps(p, kind, seed, n)
	p.EndCapture()
	return cr.Finish(false)
}

func TestReplayEquivalenceDDTSweepPlatforms(t *testing.T) {
	platforms := sweep.DefaultPlatforms()
	for _, kind := range ddt.AllKinds() {
		for seed := int64(1); seed <= 3; seed++ {
			// Capture once, on the default platform.
			sched, lanes := captureDDT(kind, seed, 400)
			if st := lanes[0]; st.Partial || st.NumEvents == 0 || st.Segments != 1 {
				t.Fatalf("%v seed %d: bad whole-run lane %v", kind, seed, st)
			}

			for _, pp := range platforms {
				// Ground truth: the same operation sequence live on pp.
				live := platform.New(pp.Config)
				ddtOps(live, kind, seed, 400)
				wantCounts, wantCycles := live.Mem.Counts(), live.Mem.Cycles()
				wantVec := live.Metrics()

				got, err := astream.ReplayComposed(sched, lanes, pp.Config, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got.Counts != wantCounts {
					t.Errorf("%v seed %d on %s: counts %+v != live %+v", kind, seed, pp.Name, got.Counts, wantCounts)
				}
				if got.Cycles != wantCycles {
					t.Errorf("%v seed %d on %s: cycles %d != live %d", kind, seed, pp.Name, got.Cycles, wantCycles)
				}
				if got.Peak != live.Heap.PeakLiveBytes() {
					t.Errorf("%v seed %d on %s: peak %d != live %d", kind, seed, pp.Name, got.Peak, live.Heap.PeakLiveBytes())
				}
				// Energy and time, assembled exactly as the exploration's
				// replay path assembles them, must be bit-identical.
				model := energy.CACTILike(pp.Config)
				seconds := float64(got.Cycles) / pp.Config.ClockHz
				if e := model.Energy(got.Counts, seconds); e != wantVec.Energy {
					t.Errorf("%v seed %d on %s: energy %v != live %v", kind, seed, pp.Name, e, wantVec.Energy)
				}
				if seconds != wantVec.Time {
					t.Errorf("%v seed %d on %s: time %v != live %v", kind, seed, pp.Name, seconds, wantVec.Time)
				}
			}
		}
	}
}

// TestReplayMultiEquivalenceDDT covers the one-decode/K-configs path on
// a real DDT stream against every default platform at once.
func TestReplayMultiEquivalenceDDT(t *testing.T) {
	sched, lanes := captureDDT(ddt.DLLARO, 99, 1500)

	platforms := sweep.DefaultPlatforms()
	cfgs := make([]memsim.Config, len(platforms))
	for i, pp := range platforms {
		cfgs[i] = pp.Config
	}
	multi, err := astream.ReplayComposedMulti(sched, lanes, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, pp := range platforms {
		live := platform.New(pp.Config)
		ddtOps(live, ddt.DLLARO, 99, 1500)
		if multi[i].Counts != live.Mem.Counts() || multi[i].Cycles != live.Mem.Cycles() ||
			multi[i].Peak != live.Heap.PeakLiveBytes() {
			t.Errorf("%s: multi-replay diverged from live", pp.Name)
		}
	}
}

// TestCaptureDoesNotPerturb pins that attaching a recorder leaves the
// live simulation's own accounting untouched.
func TestCaptureDoesNotPerturb(t *testing.T) {
	bare := platform.New(memsim.DefaultConfig())
	ddtOps(bare, ddt.SLLAR, 7, 800)

	cap := platform.New(memsim.DefaultConfig())
	cr := cap.CaptureRun()
	ddtOps(cap, ddt.SLLAR, 7, 800)
	cap.EndCapture()
	cr.Finish(false)

	if bare.Mem.Counts() != cap.Mem.Counts() || bare.Mem.Cycles() != cap.Mem.Cycles() {
		t.Fatal("capture perturbed the live simulation accounting")
	}
	if bare.Heap.PeakLiveBytes() != cap.Heap.PeakLiveBytes() {
		t.Fatal("capture perturbed the heap accounting")
	}
}
