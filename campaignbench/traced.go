package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/netapps"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/platform"
	"repro/internal/profiler"
	"repro/internal/trace"
)

// span is one timed call at a layer boundary. Spans of one campaign
// share Campaign; Parent is the ID of the span that was open around the
// call (0 for a campaign's root).
type span struct {
	Campaign string  `json:"campaign"`
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
	campaign string
	phase    int // the step span App.Run calls started now hang under
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

func (t *tracer) begin(name string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Campaign: t.campaign, ID: id, Parent: parent, Name: name, Start: start, End: -1})
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// beginRun opens an App.Run span under the current step.
func (t *tracer) beginRun() int {
	t.mu.Lock()
	parent := t.phase
	t.mu.Unlock()
	return t.begin("apps.Run", parent)
}

// setCampaign tags the spans begun from now on.
func (t *tracer) setCampaign(id string) {
	t.mu.Lock()
	t.campaign = id
	t.mu.Unlock()
}

func (t *tracer) setPhase(id int) {
	t.mu.Lock()
	t.phase = id
	t.mu.Unlock()
}

// tracedApp wraps an application so every execution — live simulation,
// profiling run or lane capture — is a span: this is the layer of the
// ddt containers and the live memsim hierarchy.
type tracedApp struct {
	apps.App
	t *tracer
}

func (a tracedApp) Run(tr *trace.Trace, p *platform.Platform, assign apps.Assignment, knobs apps.Knobs, probes *profiler.Set) (apps.Summary, error) {
	id := a.t.beginRun()
	defer a.t.end(id)
	return a.App.Run(tr, p, assign, knobs, probes)
}

// campaign is the outcome of one traced campaign: per-layer values and
// the counters the determinism check compares.
type campaign struct {
	Wall     float64
	Values   map[string]float64
	Counters map[string]int
	Report   string
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() (allocMB, gcCPU float64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6, s[1].Value.Float64()
}

// runCampaign runs one app's campaign the way ddt-explore does for the
// workload — load the cache, build the engine, run the methodology,
// mark the campaign finished, save the cache — with a span around each
// call. The profile sub-step is called first on its own: the engine
// memoizes it, so step 1 reuses it and the work done is unchanged.
func runCampaign(t *tracer, campaignID string, w workload, a apps.App, cachePath string) (*campaign, error) {
	ctx := context.Background()
	t.setCampaign(campaignID)
	c := &campaign{Values: map[string]float64{}, Counters: map[string]int{}}
	alloc0, gc0 := readRuntime()
	root := t.begin("campaign", 0)

	setup := t.begin("setup", root)
	opts := w.options()
	var cache *explore.Cache
	if w.compose {
		id := t.begin("explore.Cache.LoadReported", setup)
		var rep explore.LoadReport
		var err error
		cache, rep, err = loadCache(cachePath)
		t.end(id)
		if err != nil {
			return nil, err
		}
		c.Values["explore.cache.dropped_sections"] = float64(len(rep.Dropped))
		opts.Cache = cache
	}
	// A step ends where the engine reports its last job settled; step
	// 3 runs from there until the methodology returns.
	var method, step int
	var steps [3]int // span IDs of steps 1, 2 and 3
	opts.Progress = func(done, total int) {
		if done == total && step < 2 {
			t.end(steps[step])
			step++
			steps[step] = t.begin([]string{"explore.step1", "explore.step2", "core.step3"}[step], method)
			t.setPhase(steps[step])
		}
	}
	wrapped := tracedApp{App: a, t: t}
	id := t.begin("explore.NewEngine", setup)
	eng := explore.NewEngine(wrapped, opts)
	t.end(id)
	t.end(setup)

	prof := t.begin("explore.Engine.Profile", root)
	t.setPhase(prof)
	if _, err := eng.Profile(ctx, explore.Configs(wrapped)[0]); err != nil {
		return nil, err
	}
	t.end(prof)

	method = t.begin("core.Methodology.RunContext", root)
	steps[0] = t.begin("explore.step1", method)
	t.setPhase(steps[0])
	r, err := core.Methodology{App: wrapped, Opts: opts, Engine: eng}.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	t.end(steps[step])
	t.end(method)
	t.setPhase(root)
	eng.FinishCampaign()

	if w.compose {
		id := t.begin("explore.Cache.SaveFile", root)
		if err := cache.SaveFile(cachePath, true); err != nil {
			return nil, err
		}
		t.end(id)
		fi, err := os.Stat(cachePath)
		if err != nil {
			return nil, err
		}
		c.Values["explore.cache.file_mb"] = float64(fi.Size()) / 1e6
		cs := cache.Stats()
		c.Values["explore.cache.stream_mb"] = float64(cs.StreamBytes) / 1e6
		c.Values["explore.cache.lanes"] = float64(cs.Lanes)
	}
	t.end(root)
	alloc1, gc1 := readRuntime()
	c.Values["runtime.alloc_mb"] = alloc1 - alloc0
	c.Values["runtime.gc_cpu_s"] = gc1 - gc0

	var b bytes.Buffer
	writeReport(&b, r)
	c.Report = b.String()
	st := eng.Stats()
	for k, v := range map[string]int{
		"explore.simulated": st.Simulated, "explore.composed": st.Composed,
		"explore.pruned": st.Pruned, "explore.cache_hits": st.CacheHits,
		"explore.lane_profiles": st.LaneProfiles, "explore.expanded": st.Expanded,
		"explore.subtree_cuts": st.SubtreeCuts, "explore.replayed": st.Replayed,
		"explore.aborted": st.Aborted, "core.budget": r.Reduced, "core.pareto_set": r.ParetoOptimal,
	} {
		c.Counters[k] = v
	}
	c.attribute(t, root)
	return c, nil
}

// spanMetric names the per-layer time each step or I/O span adds to.
var spanMetric = map[string]string{
	"explore.Engine.Profile":     "explore.profile_s",
	"explore.step1":              "explore.step1_s",
	"explore.step2":              "explore.step2_s",
	"core.step3":                 "core.step3_s",
	"explore.Cache.LoadReported": "explore.cache.load_s",
	"explore.Cache.SaveFile":     "explore.cache.save_s",
}

// attribute derives the layer times of the campaign rooted at root from
// its spans: step durations, App.Run busy time by step, and the worker
// slot time of steps 1 and 2 that was not spent inside App.Run.
func (c *campaign) attribute(t *tracer, root int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := map[int]span{}
	for _, s := range t.spans[root-1:] {
		byID[s.ID] = s
	}
	var runs, jobRuns int
	var busy, stepBusy, stepWall float64
	for _, s := range byID {
		switch s.Name {
		case "apps.Run":
			runs++
			busy += s.dur()
			if byID[s.Parent].Name != "explore.Engine.Profile" {
				jobRuns++
			}
			if p := byID[s.Parent].Name; p == "explore.step1" || p == "explore.step2" {
				stepBusy += s.dur()
			}
		case "explore.step1", "explore.step2":
			stepWall += s.dur()
		}
		key := spanMetric[s.Name]
		if key != "" {
			c.Values[key] += s.dur()
		}
	}
	c.Wall = byID[root].dur()
	c.Counters["apps.runs"] = runs
	c.Counters["apps.job_runs"] = jobRuns
	c.Values["apps.run_busy_s"] = busy
	c.Values["apps.step_busy_s"] = stepBusy
	c.Values["explore.step_wall_s"] = stepWall
}

// cmdTraced runs the workload's campaigns with spans on, passes times
// over (each pass a fresh engine, all in this one process), writes the
// spans to -spans and prints each pass's layer values and counters.
func cmdTraced(args []string) error {
	fs := flag.NewFlagSet("traced", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	cachePath := fs.String("cache", "", "replay cache path (compose workloads)")
	passes := fs.Int("passes", 1, "campaign passes")
	spansPath := fs.String("spans", "", "write the spans here as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	t := newTracer()
	type passOut struct {
		Wall     float64            `json:"wall_s"`
		Values   map[string]float64 `json:"values"`
		Counters map[string]int     `json:"counters"`
		Reports  map[string]string  `json:"reports"`
	}
	var out []passOut
	for pass := range *passes {
		po := passOut{Values: map[string]float64{}, Counters: map[string]int{}, Reports: map[string]string{}}
		for _, an := range w.apps {
			a, err := netapps.ByName(an)
			if err != nil {
				return err
			}
			id := fmt.Sprintf("%s/%s/pass%d", *name, a.Name(), pass)
			c, err := runCampaign(t, id, w, a, *cachePath)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			po.Wall += c.Wall
			for k, v := range c.Values {
				po.Values[k] += v
			}
			for k, v := range c.Counters {
				po.Counters[k] += v
			}
			po.Reports[a.Name()] = c.Report
		}
		out = append(out, po)
	}
	if *spansPath != "" {
		b, err := json.Marshal(t.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*spansPath, b, 0o644); err != nil {
			return err
		}
	}
	return printJSON(map[string]any{"passes": out})
}
