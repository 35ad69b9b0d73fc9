package astream_test

import (
	"math/rand"
	"testing"

	"repro/internal/astream"
	"repro/internal/memsim"
)

// evFoot is a test-script event (never encoded): the run's live heap
// bytes change by Delta, as allocations and frees would move them.
const evFoot astream.EventKind = 200

// randEvents produces a deterministic pseudo-random event script with the
// mix a DDT simulation produces: mostly one-word accesses with locality,
// occasional multi-word record accesses, interleaved ops and footprint
// changes (mostly growth, some frees).
func randEvents(rng *rand.Rand, n int) []astream.Event {
	evs := make([]astream.Event, 0, n)
	addr := uint32(0x1000_0000)
	live := int64(0)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 4: // one-word read nearby
			addr += uint32(rng.Intn(256)) - 128
			evs = append(evs, astream.Event{Kind: astream.EvRead, Addr: addr &^ 3, Size: 4})
		case r < 6: // one-word write
			addr += uint32(rng.Intn(4096)) - 2048
			evs = append(evs, astream.Event{Kind: astream.EvWrite, Addr: addr &^ 3, Size: 4})
		case r < 8: // multi-word record access, possibly unaligned size
			size := uint32(1 + rng.Intn(64))
			evs = append(evs, astream.Event{Kind: astream.EvRead, Addr: addr &^ 7, Size: size})
		case r < 9: // ALU op
			evs = append(evs, astream.Event{Kind: astream.EvOp, N: uint64(1 + rng.Intn(100))})
		default: // footprint change: mostly growth, sometimes a free
			d := int64(8 + rng.Intn(512))
			if rng.Intn(3) == 0 && live >= d {
				d = -d
			}
			live += d
			evs = append(evs, astream.Event{Kind: evFoot, Delta: d})
		}
	}
	return evs
}

// footMeter is a LaneMeter over the script's live bytes — the stand-in
// for the heap a whole-run capture meters.
type footMeter struct{ live, start, max uint64 }

func (m *footMeter) BeginSegment() { m.start, m.max = m.live, m.live }

func (m *footMeter) SegmentStats() (uint64, int64) {
	return m.max - m.start, int64(m.live) - int64(m.start)
}

func (m *footMeter) add(d int64) {
	m.live = uint64(int64(m.live) + d)
	if m.live > m.max {
		m.max = m.live
	}
}

// recordRun drives the event script through a live Hierarchy with a
// zero-role composed recorder attached as its event sink — the exact
// wiring of a whole-run capture, with the script's footprint changes
// metered by footMeter. It returns the one-token schedule and the
// run's single lane; partial marks an aborted capture.
func recordRun(evs []astream.Event, partial bool) (*astream.Schedule, []*astream.SubStream) {
	m := &footMeter{}
	cr := astream.NewComposedRecorder(nil, []astream.LaneMeter{m})
	h := memsim.New(memsim.DefaultConfig())
	h.SetEventSink(cr)
	for _, ev := range evs {
		switch ev.Kind {
		case astream.EvRead:
			h.Read(ev.Addr, ev.Size)
		case astream.EvWrite:
			h.Write(ev.Addr, ev.Size)
		case astream.EvOp:
			h.Op(ev.N)
		case evFoot:
			m.add(ev.Delta)
		}
		h.Boundary(0) // one lane: every boundary is a no-op
	}
	h.SetEventSink(nil)
	return cr.Finish(partial)
}

// record is recordRun for a complete capture, returning just the lane.
func record(evs []astream.Event) *astream.SubStream {
	_, lanes := recordRun(evs, false)
	return lanes[0]
}

// coalesce maps an event script to the form a whole-run capture
// encodes: op cycles accumulate until the next access (where they
// surface as one op event before it) or the end of the stream;
// zero-size accesses and footprint changes are dropped, and the single
// segment end closes the stream with the run's footprint deltas.
func coalesce(evs []astream.Event) []astream.Event {
	var out []astream.Event
	var pending uint64
	var live, peak int64
	for _, ev := range evs {
		switch ev.Kind {
		case astream.EvOp:
			pending += ev.N
		case evFoot:
			if live += ev.Delta; live > peak {
				peak = live
			}
		case astream.EvRead, astream.EvWrite:
			if ev.Size == 0 {
				continue
			}
			if pending != 0 {
				out = append(out, astream.Event{Kind: astream.EvOp, N: pending})
				pending = 0
			}
			out = append(out, ev)
		}
	}
	if pending != 0 {
		out = append(out, astream.Event{Kind: astream.EvOp, N: pending})
	}
	return append(out, astream.Event{Kind: astream.EvSeg, N: uint64(peak), Delta: live})
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 20000} {
		rng := rand.New(rand.NewSource(int64(n) + 42))
		evs := randEvents(rng, n)
		s := record(evs)
		want := coalesce(evs)
		if got := int(s.NumEvents); got != len(want) {
			t.Fatalf("n=%d: NumEvents = %d, want %d", n, got, len(want))
		}
		var got []astream.Event
		if err := s.ForEach(func(ev astream.Event) bool {
			got = append(got, ev)
			return true
		}); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: decoded %d events, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestRoundTripStopsEarly(t *testing.T) {
	s := record(randEvents(rand.New(rand.NewSource(1)), 100))
	seen := 0
	if err := s.ForEach(func(astream.Event) bool {
		seen++
		return seen < 5
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("ForEach visited %d events after stop, want 5", seen)
	}
}

// liveCost drives the script through a real Hierarchy and returns its
// totals — the ground truth replay must reproduce exactly.
func liveCost(evs []astream.Event, cfg memsim.Config) (memsim.Counts, uint64, uint64) {
	h := memsim.New(cfg)
	var live, peak int64
	for _, ev := range evs {
		switch ev.Kind {
		case astream.EvRead:
			h.Read(ev.Addr, ev.Size)
		case astream.EvWrite:
			h.Write(ev.Addr, ev.Size)
		case astream.EvOp:
			h.Op(ev.N)
		case evFoot:
			if live += ev.Delta; live > peak {
				peak = live
			}
		}
	}
	return h.Counts(), h.Cycles(), uint64(peak)
}

// testConfigs spans the geometry axes replay must stay exact over: sizes,
// line sizes, associativities, including a non-power-of-two set count.
func testConfigs() []memsim.Config {
	base := memsim.DefaultConfig()
	var out []memsim.Config
	out = append(out, base)
	c := base
	c.L1.SizeBytes, c.L2.SizeBytes = 4<<10, 64<<10
	out = append(out, c)
	c = base
	c.L1.LineBytes, c.L2.LineBytes = 64, 64
	out = append(out, c)
	c = base
	c.L1.Assoc, c.L2.Assoc = 4, 16
	out = append(out, c)
	c = base
	c.L1.SizeBytes = 6 << 10 // 96 sets at 2-way/32B: non-power-of-two indexing
	out = append(out, c)
	return out
}

func TestReplayMatchesLive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := randEvents(rng, 50000)
	sched, lanes := recordRun(evs, false)
	for _, cfg := range testConfigs() {
		wantCounts, wantCycles, wantPeak := liveCost(evs, cfg)
		got, err := astream.ReplayComposed(sched, lanes, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Aborted {
			t.Fatal("unguarded replay reported aborted")
		}
		if got.Counts != wantCounts {
			t.Errorf("cfg %+v: counts = %+v, want %+v", cfg.L1, got.Counts, wantCounts)
		}
		if got.Cycles != wantCycles {
			t.Errorf("cfg %+v: cycles = %d, want %d", cfg.L1, got.Cycles, wantCycles)
		}
		if got.Peak != wantPeak {
			t.Errorf("cfg %+v: peak = %d, want %d", cfg.L1, got.Peak, wantPeak)
		}
	}
}

func TestReplayMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	evs := randEvents(rng, 30000)
	sched, lanes := recordRun(evs, false)
	cfgs := testConfigs()
	multi, err := astream.ReplayComposedMulti(sched, lanes, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != len(cfgs) {
		t.Fatalf("%d costs for %d configs", len(multi), len(cfgs))
	}
	for k, cfg := range cfgs {
		single, err := astream.ReplayComposed(sched, lanes, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if multi[k] != single {
			t.Errorf("config %d: multi %+v != single %+v", k, multi[k], single)
		}
	}
}

func TestGuardedReplayAborts(t *testing.T) {
	evs := randEvents(rand.New(rand.NewSource(3)), 40000)
	sched, lanes := recordRun(evs, false)
	cfg := memsim.DefaultConfig()
	full, err := astream.ReplayComposed(sched, lanes, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	limit := full.Cycles / 4
	calls := 0
	got, err := astream.ReplayComposed(sched, lanes, cfg, func(c astream.Cost) bool {
		calls++
		// A whole-run replay knows its footprint peak up front, so
		// every snapshot carries the exact final one.
		if c.Peak != full.Peak {
			t.Errorf("guard snapshot peak %d, want the final %d", c.Peak, full.Peak)
		}
		return c.Cycles > limit
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("guard never polled")
	}
	if !got.Aborted {
		t.Fatal("guard fired but replay not marked aborted")
	}
	if got.Cycles >= full.Cycles {
		t.Fatalf("aborted replay ran to completion: %d >= %d cycles", got.Cycles, full.Cycles)
	}
	// A guard that never fires must not change the outcome.
	unguarded, err := astream.ReplayComposed(sched, lanes, cfg, func(astream.Cost) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if unguarded != full {
		t.Fatalf("benign guard changed the outcome: %+v vs %+v", unguarded, full)
	}
}

func TestPartialStreamRefused(t *testing.T) {
	evs := []astream.Event{{Kind: astream.EvRead, Addr: 0x1000, Size: 4}}
	sched, lanes := recordRun(evs, true)
	if !lanes[0].Partial {
		t.Fatal("Finish(true) did not mark the lane partial")
	}
	if _, err := astream.ReplayComposed(sched, lanes, memsim.DefaultConfig(), nil); err == nil {
		t.Fatal("ReplayComposed accepted a partial lane")
	}
	if _, err := astream.ReplayComposedMulti(sched, lanes, []memsim.Config{memsim.DefaultConfig()}); err == nil {
		t.Fatal("ReplayComposedMulti accepted a partial lane")
	}
	if _, err := lanes[0].Unpack(); err == nil {
		t.Fatal("Unpack accepted a partial lane")
	}
}

func TestCorruptStreamErrors(t *testing.T) {
	sched, lanes := recordRun(randEvents(rand.New(rand.NewSource(5)), 100), false)
	lanes[0].Chunks[0][0] = 0x7F // unknown tag (not an access, op or segment end)
	if _, err := astream.ReplayComposed(sched, lanes, memsim.DefaultConfig(), nil); err == nil {
		t.Fatal("corrupt stream replayed without error")
	}
}

func TestEncodingIsCompact(t *testing.T) {
	evs := randEvents(rand.New(rand.NewSource(9)), 100000)
	s := record(evs)
	perEvent := float64(s.SizeBytes()) / float64(s.NumEvents)
	if perEvent > 4.0 {
		t.Errorf("encoding averages %.1f bytes/event; want <= 4", perEvent)
	}
}
