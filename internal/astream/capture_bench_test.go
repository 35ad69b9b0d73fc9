package astream_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/route"
	"repro/internal/astream"
	"repro/internal/memsim"
	"repro/internal/platform"
	"repro/internal/trace"
)

// The capture/replay cost model on a real workload: one Route execution
// recorded once as a whole-run (one-lane) capture, then evaluated under
// other platform configurations by replay. The interesting ratios are capture overhead vs a plain live
// run, single replay vs live, and the marginal cost of each extra
// configuration in a multi-config pass.

const benchPackets = 2000

func routeTrace(b *testing.B) *trace.Trace {
	b.Helper()
	a := route.App{}
	tr, err := trace.Builtin(a.TraceNames()[0], benchPackets)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func runRoute(b *testing.B, p *platform.Platform, tr *trace.Trace) {
	b.Helper()
	a := route.App{}
	if _, err := a.Run(tr, p, apps.Original(a), a.DefaultKnobs(), nil); err != nil {
		b.Fatal(err)
	}
}

func captureRoute(b *testing.B, tr *trace.Trace) (*astream.Schedule, []*astream.SubStream) {
	b.Helper()
	p := platform.New(memsim.DefaultConfig())
	cr := p.CaptureRun()
	runRoute(b, p, tr)
	p.EndCapture()
	return cr.Finish(false)
}

func sweepConfigs() []memsim.Config {
	base := memsim.DefaultConfig()
	out := make([]memsim.Config, 4)
	for i := range out {
		c := base
		c.L1.SizeBytes = 4 << (10 + i)
		c.L2.SizeBytes = 64 << (10 + i)
		out[i] = c
	}
	return out
}

func BenchmarkCaptureRoute(b *testing.B) {
	tr := routeTrace(b)
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runRoute(b, platform.New(memsim.DefaultConfig()), tr)
		}
	})
	b.Run("capture", func(b *testing.B) {
		var bytes, events int64
		for i := 0; i < b.N; i++ {
			_, lanes := captureRoute(b, tr)
			bytes, events = int64(lanes[0].SizeBytes()), int64(lanes[0].NumEvents)
		}
		b.ReportMetric(float64(bytes), "stream-B")
		b.ReportMetric(float64(events), "events")
	})
	sched, lanes := captureRoute(b, tr)
	b.Run("replay-1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := astream.ReplayComposed(sched, lanes, memsim.DefaultConfig(), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	cfgs := sweepConfigs()
	b.Run("replay-multi-4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := astream.ReplayComposedMulti(sched, lanes, cfgs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestReplaySteadyStateAllocs asserts the replay hot path recycles its
// working set: after a warm-up replay has populated the scratch pool,
// further replays of the same configuration must not allocate — the
// batch arrays and the LineSim tag stores come from the pool, with a
// geometry-matched simulator Reset instead of rebuilt.
func TestReplaySteadyStateAllocs(t *testing.T) {
	p := platform.New(memsim.DefaultConfig())
	cr := p.CaptureRun()
	a := route.App{}
	tr, err := trace.Builtin(a.TraceNames()[0], 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(tr, p, apps.Original(a), a.DefaultKnobs(), nil); err != nil {
		t.Fatal(err)
	}
	p.EndCapture()
	sched, lanes := cr.Finish(false)

	cfg := memsim.DefaultConfig()
	if _, err := astream.ReplayComposed(sched, lanes, cfg, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := astream.ReplayComposed(sched, lanes, cfg, nil); err != nil {
			t.Fatal(err)
		}
	})
	// The pool is shared across goroutines, so tolerate a stray refill;
	// steady state is zero.
	if allocs > 2 {
		t.Errorf("steady-state ReplayComposed allocates %.1f objects/op, want ~0", allocs)
	}
}
