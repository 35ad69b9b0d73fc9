package explore_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/apps/netapps"
	"repro/internal/explore"
)

// BenchmarkStep2Compose measures the composed network-level step on
// FlowMon at reduced packets: step 1 runs untimed on a fresh engine,
// then step 2 re-evaluates every survivor on every other configuration.
// Each configuration's lane cover runs live and everything else
// composes, so `simulated` (live runs of step 2 alone) is the cover
// size times the configuration count at any worker count, and
// `composed` is the remainder.
func BenchmarkStep2Compose(b *testing.B) {
	a, err := netapps.ByName("FlowMon")
	if err != nil {
		b.Fatal(err)
	}
	configs := explore.Configs(a)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := explore.NewEngine(a, explore.Options{TracePackets: 1000, Workers: 2, Compose: true, BoundPrune: true})
		s1, err := eng.Step1(context.Background(), configs[0])
		if err != nil {
			b.Fatal(err)
		}
		before := eng.Stats()
		b.StartTimer()
		t0 := time.Now()
		if _, err := eng.Step2(context.Background(), s1, configs); err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(t0)
		after := eng.Stats()
		b.ReportMetric(float64(elapsed.Milliseconds()), "step2-ms")
		b.ReportMetric(float64(after.Simulated-before.Simulated), "simulated")
		b.ReportMetric(float64(after.Composed-before.Composed), "composed")
	}
}
