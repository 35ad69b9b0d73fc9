package explore_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/apps/netapps"
	"repro/internal/explore"
	"repro/internal/sweep"
)

// BenchmarkBranchBoundExploration measures the best-first
// branch-and-bound tree search (the BoundPrune step-1 path) on the
// 1000-combination DRR grid and the 10^5-combination FlowMon space: how
// long the search takes and how much of the space it cuts in bulk as
// dominated lane-prefix subtrees, never materializing a job for them.
// The survivor fronts are bit-identical to the exhaustive composed run
// (pinned by TestBranchBoundK5FrontIdentity).
//
//   - cold: the search pays the ~10·K lane captures and profile passes,
//     seeds the front with the ten uniform-kind combinations first,
//     then searches best-first.
//   - warm-new-platform: lanes and profiles come from a persisted
//     snapshot and the space is re-explored on a platform the cache has
//     no results for; nothing executes.
func BenchmarkBranchBoundExploration(b *testing.B) {
	cases := []struct {
		app     string
		k       int
		packets int
		space   int
	}{
		{"DRR", 3, 400, 1000},
		{"FlowMon", 5, 150, 100000},
	}
	for _, c := range cases {
		c := c
		a, err := netapps.ByName(c.app)
		if err != nil {
			b.Fatal(err)
		}
		ref := explore.Config{TraceName: a.TraceNames()[0], Knobs: a.DefaultKnobs()}
		base := explore.Options{TracePackets: c.packets, DominantK: c.k, BoundPrune: true}

		run := func(b *testing.B, opts explore.Options) (time.Duration, explore.EngineStats, *explore.Step1Result) {
			b.Helper()
			eng := explore.NewEngine(a, opts)
			t0 := time.Now()
			s1, err := eng.Step1(context.Background(), ref)
			if err != nil {
				b.Fatal(err)
			}
			if s1.Simulations != c.space {
				b.Fatalf("expected the %d-combination space, got %d", c.space, s1.Simulations)
			}
			return time.Since(t0), eng.Stats(), s1
		}
		report := func(b *testing.B, bb time.Duration, s1 *explore.Step1Result) {
			b.Helper()
			matPruned := 0
			for _, r := range s1.Results {
				if r.Pruned {
					matPruned++
				}
			}
			bulk := s1.Pruned - matPruned
			if len(s1.Results)+bulk != c.space {
				b.Fatalf("tree search accounts for %d materialized + %d bulk-cut of %d",
					len(s1.Results), bulk, c.space)
			}
			b.ReportMetric(float64(bb.Milliseconds()), "branchbound-ms")
			b.ReportMetric(float64(bulk)/float64(c.space), "cut-ratio")
			b.ReportMetric(float64(len(s1.Results)), "materialized")
		}

		b.Run(fmt.Sprintf("%s-K%d/cold", c.app, c.k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bb, _, s1 := run(b, base)
				report(b, bb, s1)
			}
		})

		b.Run(fmt.Sprintf("%s-K%d/warm-new-platform", c.app, c.k), func(b *testing.B) {
			prep := explore.NewCache()
			warm := base
			warm.Cache = prep
			if _, err := explore.NewEngine(a, warm).Step1(context.Background(), ref); err != nil {
				b.Fatal(err)
			}
			var snapshot bytes.Buffer
			if err := prep.SaveWithStreams(&snapshot); err != nil {
				b.Fatal(err)
			}
			other := sweep.DefaultPlatforms()[5].Config // midrange-32K-512K
			load := func(b *testing.B) *explore.Cache {
				b.Helper()
				c := explore.NewCache()
				if err := c.Load(bytes.NewReader(snapshot.Bytes())); err != nil {
					b.Fatal(err)
				}
				return c
			}
			for i := 0; i < b.N; i++ {
				bbOpts := base
				bbOpts.Cache, bbOpts.Platform = load(b), &other
				bb, st, s1 := run(b, bbOpts)
				if st.Simulated != 0 {
					b.Fatalf("warm search executed %d simulations", st.Simulated)
				}
				report(b, bb, s1)
			}
		})
	}
}
