// Package core orchestrates the paper's primary contribution: the 3-step
// dynamic data type refinement methodology (Figure 1).
//
//	Step 1  application-level DDT exploration — profile the candidate
//	        containers, refine the dominant ones by simulating every DDT
//	        combination on the reference configuration, keep the 4-metric
//	        non-dominated survivors.
//	Step 2  network-level DDT exploration — re-simulate the survivors for
//	        every network configuration (traces x application parameters).
//	Step 3  Pareto-level DDT exploration — post-process all results into
//	        Pareto-optimal sets and trade-off figures, and hand the
//	        designer the curves instead of a single answer.
//
// Run returns a Report holding everything the paper's evaluation section
// derives from the flow: the simulation-count reduction (Table 1), the
// trade-off spans among Pareto-optimal points (Table 2), the per-network
// Pareto fronts (Figures 3-4) and the comparison against the original
// all-singly-linked-list implementation (the §4 headline numbers).
package core

import (
	"context"
	"fmt"

	"repro/internal/apps"
	"repro/internal/explore"
	"repro/internal/metrics"
	"repro/internal/pareto"
	"repro/internal/profiler"
)

// Methodology configures one end-to-end run for one application.
type Methodology struct {
	App  apps.App
	Opts explore.Options
	// Engine, when set, drives the run instead of a fresh engine built
	// from App and Opts — the way callers share a simulation cache across
	// runs and read back EngineStats afterwards. It must wrap App.
	Engine *explore.Engine
}

// engine returns the injected engine or builds one from App and Opts.
func (m Methodology) engine() *explore.Engine {
	if m.Engine != nil {
		return m.Engine
	}
	return explore.NewEngine(m.App, m.Opts)
}

// ConfigReport is the step-3 output for one network configuration: the
// solution points observed there and their Pareto fronts.
type ConfigReport struct {
	Config  explore.Config
	Results []explore.Result
	// Front4D is the non-dominated set in all four metrics.
	Front4D []pareto.Point
	// FrontTE is the execution time vs energy Pareto curve (Figure 4a/b).
	FrontTE []pareto.Point
	// FrontAF is the memory accesses vs footprint Pareto curve (Figure 4c).
	FrontAF []pareto.Point
}

// Points converts the configuration's results to Pareto points.
func (c ConfigReport) Points() []pareto.Point {
	pts := make([]pareto.Point, len(c.Results))
	for i, r := range c.Results {
		pts[i] = r.Point(i)
	}
	return pts
}

// Report is the complete outcome of the methodology for one application.
type Report struct {
	App           string
	DominantRoles []string
	Profile       *profiler.Set
	Reference     explore.Config
	Step1         *explore.Step1Result
	Step2         *explore.Step2Result
	Configs       []ConfigReport

	// Table 1: simulation budget.
	Exhaustive    int // combinations x configurations
	Reduced       int // simulations actually run (step 1 + step 2)
	ParetoOptimal int // combinations on the cross-configuration front

	// ParetoSet is the cross-configuration Pareto-optimal set: the 4-D
	// front over per-combination vectors averaged across configurations.
	ParetoSet []pareto.Point

	// Table 2: largest trade-off span among Pareto-optimal points of any
	// single configuration ("trade-offs can be achieved up to ...").
	Tradeoffs map[metrics.Metric]float64

	// Factors: worst non-optimal solution vs best Pareto point on the
	// reference configuration ("a reduction in memory accesses up to a
	// factor of 8 ...", §4).
	Factors map[metrics.Metric]float64

	// Headline: refined vs the original all-SLL implementation on the
	// reference configuration.
	Original     explore.Result
	BestEnergy   pareto.Point
	BestTime     pareto.Point
	EnergySaving float64 // fractional energy reduction of BestEnergy vs Original
	TimeSaving   float64 // fractional time reduction of BestTime vs Original
}

// Run executes the full methodology with a background context.
func (m Methodology) Run() (*Report, error) {
	return m.RunContext(context.Background())
}

// RunContext executes the full methodology through the exploration
// Engine; cancelling ctx stops the streaming steps between simulations.
func (m Methodology) RunContext(ctx context.Context) (*Report, error) {
	if m.App == nil {
		return nil, fmt.Errorf("core: Methodology.App is nil")
	}
	configs := explore.Configs(m.App)
	if len(configs) == 0 {
		return nil, fmt.Errorf("core: %s has no network configurations", m.App.Name())
	}
	reference := configs[0]
	eng := m.engine()

	// Steps 1 and 2, streamed over the engine's worker pool.
	s1, err := eng.Step1(ctx, reference)
	if err != nil {
		return nil, err
	}
	// The original implementation, for the headline comparison. Simulated
	// right after step 1 so a composing engine serves it from the
	// reference lanes step 1 just captured, before step 2's captures can
	// evict them: whether it runs live then never depends on eviction
	// timing.
	orig, err := eng.Simulate(ctx, reference, apps.Original(m.App))
	if err != nil {
		return nil, err
	}
	s2, err := eng.Step2(ctx, s1, configs)
	if err != nil {
		return nil, err
	}

	r := &Report{
		App:           m.App.Name(),
		DominantRoles: s1.DominantRoles,
		Profile:       s1.Profile,
		Reference:     reference,
		Step1:         s1,
		Step2:         s2,
		// Simulations, not len(Results): branch-and-bound cuts whole
		// subtrees without materializing a Result per combination, but
		// the exhaustive yardstick is still the full space.
		Exhaustive: s1.Simulations * len(configs),
		Reduced:    s1.Simulations + s2.Simulations,
		Tradeoffs:  make(map[metrics.Metric]float64),
		Factors:    make(map[metrics.Metric]float64),
	}

	// Step 3: per-configuration Pareto fronts. The reference
	// configuration charts the full combination space from step 1; the
	// others chart the step-2 survivor results. Early-aborted
	// simulations carry partial vectors and are excluded — their full
	// vectors are provably dominated, so the fronts are unchanged; only
	// the scatter of non-optimal points thins out.
	for _, cfg := range configs {
		var results []explore.Result
		if cfg.String() == reference.String() {
			results = explore.Live(s1.Results)
		} else {
			results = explore.Live(s2.ResultsFor(cfg))
		}
		cr := ConfigReport{Config: cfg, Results: results}
		pts := cr.Points()
		cr.Front4D = pareto.Front(pts)
		cr.FrontTE = pareto.Front2D(pts, metrics.Time, metrics.Energy)
		cr.FrontAF = pareto.Front2D(pts, metrics.Accesses, metrics.Footprint)
		r.Configs = append(r.Configs, cr)

		for _, met := range metrics.AllMetrics() {
			if t := pareto.TradeoffRange(cr.Front4D, met); t > r.Tradeoffs[met] {
				r.Tradeoffs[met] = t
			}
		}
	}

	// Cross-configuration Pareto-optimal set: average each surviving
	// combination's vector over every configuration it was simulated on,
	// then take the 4-D front (Table 1's "Pareto optimal" column).
	r.ParetoSet = crossConfigFront(explore.Live(s2.Results), s1.DominantRoles)
	r.ParetoOptimal = len(r.ParetoSet)

	// Reference-configuration factors (all combinations vs its front).
	refPts := r.Configs[0].Points()
	refFront := r.Configs[0].Front4D
	for _, met := range metrics.AllMetrics() {
		r.Factors[met] = pareto.WorstBestFactor(refPts, refFront, met)
	}

	// Headline comparison against the original implementation.
	r.Original = orig
	r.BestEnergy = pareto.Best(refFront, metrics.Energy)
	r.BestTime = pareto.Best(refFront, metrics.Time)
	r.EnergySaving = r.BestEnergy.Vec.Improvement(orig.Vec, metrics.Energy)
	r.TimeSaving = r.BestTime.Vec.Improvement(orig.Vec, metrics.Time)
	return r, nil
}

// crossConfigFront averages each combination across configurations and
// returns the 4-D front of the averages. Only combinations with complete
// configuration coverage enter the averaging: under early abort a
// combination may lack samples for exactly the configurations it was
// worst on, and averaging over the remainder would bias it low enough to
// falsely join (or reshape) the front. Step 2 never bound-prunes, so
// coverage is complete — and nothing is skipped — unless early abort is
// on.
func crossConfigFront(results []explore.Result, roles []string) []pareto.Point {
	sums := make(map[string]metrics.Vector)
	counts := make(map[string]int)
	labels := make(map[string]string)
	full := 0
	for _, res := range results {
		key := explore.ComboKey(res.Assign, roles)
		sums[key] = sums[key].Add(res.Vec)
		counts[key]++
		if counts[key] > full {
			full = counts[key]
		}
		labels[key] = res.Label()
	}
	pts := make([]pareto.Point, 0, len(sums))
	for key, sum := range sums {
		if counts[key] < full {
			continue // incomplete coverage: average would be biased low
		}
		pts = append(pts, pareto.Point{
			Label: labels[key],
			Vec:   sum.Scale(1 / float64(counts[key])),
		})
	}
	return pareto.Front(pts)
}

// Validation is the outcome of testing a report's recommendations on a
// configuration the exploration never saw — the generalization question
// the paper's per-network curves raise but do not answer.
type Validation struct {
	Config explore.Config
	// SetSize is the size of the cross-configuration Pareto set tested.
	SetSize int
	// StillOptimal counts how many of those combinations remain
	// non-dominated among each other on the held-out configuration.
	StillOptimal int
	// BestBeatsOriginal reports whether the recommended best-energy
	// combination still consumes less energy than the original all-SLL
	// implementation on the held-out configuration.
	BestBeatsOriginal bool
}

// Validate re-simulates the report's Pareto-optimal combinations and the
// original implementation on cfg, which should not belong to the
// exploration's configuration set.
func (m Methodology) Validate(r *Report, cfg explore.Config) (Validation, error) {
	ctx := context.Background()
	eng := m.engine()
	v := Validation{Config: cfg, SetSize: len(r.ParetoSet)}
	if v.SetSize == 0 {
		return v, fmt.Errorf("core: report has an empty Pareto set")
	}
	// Recover the assignments behind the Pareto labels from step 1.
	byLabel := make(map[string]apps.Assignment)
	for _, res := range r.Step1.Results {
		byLabel[res.Label()] = res.Assign
	}
	pts := make([]pareto.Point, 0, v.SetSize)
	var bestEnergyHeldOut float64
	for i, p := range r.ParetoSet {
		assign, ok := byLabel[p.Label]
		if !ok {
			return v, fmt.Errorf("core: Pareto label %q not found in step-1 results", p.Label)
		}
		res, err := eng.Simulate(ctx, cfg, assign)
		if err != nil {
			return v, err
		}
		pts = append(pts, res.Point(i))
		if p.Label == r.BestEnergy.Label {
			bestEnergyHeldOut = res.Vec.Energy
		}
	}
	v.StillOptimal = len(pareto.Front(pts))

	orig, err := eng.Simulate(ctx, cfg, apps.Original(m.App))
	if err != nil {
		return v, err
	}
	v.BestBeatsOriginal = bestEnergyHeldOut > 0 && bestEnergyHeldOut < orig.Vec.Energy
	return v, nil
}

// ReductionFraction is Table 1's bottom line: the share of exhaustive
// simulations the staged methodology avoided.
func (r *Report) ReductionFraction() float64 {
	if r.Exhaustive == 0 {
		return 0
	}
	return 1 - float64(r.Reduced)/float64(r.Exhaustive)
}

// ConfigByName returns the ConfigReport whose configuration renders as s
// (e.g. "Berry table=256").
func (r *Report) ConfigByName(s string) (ConfigReport, error) {
	for _, c := range r.Configs {
		if c.Config.String() == s {
			return c, nil
		}
	}
	return ConfigReport{}, fmt.Errorf("core: report for %s has no configuration %q", r.App, s)
}
