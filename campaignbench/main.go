// Command campaignbench is the in-process half of the campaign
// benchmark (run.py is the driver). It drives ddt-explore's campaigns
// through the library API the command is built on, so the benchmark can
// time the calls into each layer from its own files:
//
//	campaignbench setup -workload flowmon-warm -cache settled.replay -reps 5
//	campaignbench traced -workload flowmon-cold -cache c.replay -spans s.json
//	campaignbench reference -app FlowMon
//
// setup times the calls a ddt-explore process makes before its first
// job can run; traced runs the workload's campaigns with spans around
// every layer call and prints the per-layer metrics as JSON; reference
// prints the exact report an app's campaign must produce, from a path
// independent of composition and bound pruning.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/apps/netapps"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/trace"
)

// packets and workers mirror the ddt-explore invocations run.py execs:
// the CLI's default trace length, and -workers 2.
const (
	packets = 8000
	workers = 2
)

// workload is one benchmark workload as ddt-explore flags: the apps its
// operation runs in turn, and whether each runs -compose against a
// -replay-cache file.
type workload struct {
	apps    []string
	compose bool
}

var workloads = map[string]workload{
	"paper-plain":  {apps: []string{"Route", "URL", "IPchains", "DRR"}},
	"flowmon-cold": {apps: []string{"FlowMon"}, compose: true},
	"flowmon-warm": {apps: []string{"FlowMon"}, compose: true},
}

// options returns the explore.Options ddt-explore builds for the
// workload's flags (cache attached separately).
func (w workload) options() explore.Options {
	return explore.Options{
		TracePackets: packets,
		Workers:      workers,
		Compose:      w.compose,
		BoundPrune:   w.compose,
	}
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: campaignbench setup|traced|reference [flags]")
	}
	var err error
	switch os.Args[1] {
	case "setup":
		err = cmdSetup(os.Args[2:])
	case "traced":
		err = cmdTraced(os.Args[2:])
	case "reference":
		err = cmdReference(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fatalf("campaignbench: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

func lookupWorkload(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(v)
}

// loadCache mirrors ddt-explore's cache load: a missing file is a cold
// start, anything else is read with salvage reporting. Salvage (dropped
// sections, a torn tail) is an error here: the benchmark's warm inputs
// must load whole.
func loadCache(path string) (*explore.Cache, explore.LoadReport, error) {
	cache := explore.NewCache()
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return cache, explore.LoadReport{}, nil
	}
	if err != nil {
		return nil, explore.LoadReport{}, err
	}
	defer f.Close()
	rep, err := cache.LoadReported(f)
	if err != nil {
		return nil, rep, err
	}
	if len(rep.Dropped) > 0 || rep.Truncated {
		return nil, rep, fmt.Errorf("cache %s salvaged (dropped %v, truncated %v)", path, rep.Dropped, rep.Truncated)
	}
	return cache, rep, nil
}

// cmdSetup times, reps times over, the public calls a ddt-explore
// process of the workload makes before its first job can run: trace
// generation for every configuration's trace, the cache load and engine
// construction — summed over the workload's apps, as its operation pays
// them once per process.
func cmdSetup(args []string) error {
	fs := flag.NewFlagSet("setup", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	cachePath := fs.String("cache", "", "replay cache to load (compose workloads)")
	reps := fs.Int("reps", 5, "set-up repetitions")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	var times []float64
	for range *reps {
		runtime.GC()
		start := time.Now()
		for _, an := range w.apps {
			a, err := netapps.ByName(an)
			if err != nil {
				return err
			}
			for _, tn := range a.TraceNames() {
				if _, err := trace.Builtin(tn, packets); err != nil {
					return err
				}
			}
			opts := w.options()
			if w.compose {
				if opts.Cache, _, err = loadCache(*cachePath); err != nil {
					return err
				}
			}
			explore.NewEngine(a, opts)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return printJSON(map[string]any{"setup_s": times})
}

// cmdReference prints the exact report of one app's campaign, computed
// on the reference path: the paper apps on the plain shared-heap path
// ddt-explore runs by default, FlowMon on the per-role-arena address
// model that -compose is defined on, but simulating every job live — no
// composition, no bound pruning, so every step-2 point carries its full
// configuration coverage into step 3.
func cmdReference(args []string) error {
	fs := flag.NewFlagSet("reference", flag.ContinueOnError)
	appName := fs.String("app", "", "application")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := netapps.ByName(*appName)
	if err != nil {
		return err
	}
	opts := explore.Options{TracePackets: packets, Workers: workers}
	if !slices.Contains(workloads["paper-plain"].apps, a.Name()) {
		opts.Arenas = true
	}
	r, err := core.Methodology{App: a, Opts: opts}.RunContext(context.Background())
	if err != nil {
		return err
	}
	writeReport(os.Stdout, r)
	return nil
}

// writeReport prints r exactly as ddt-explore prints it, minus the lines
// the benchmark's normalizer strips from the command's output (wall time
// and engine stats, branch-and-bound, cache saved): what remains is a
// pure function of the campaign's inputs.
func writeReport(w io.Writer, r *core.Report) {
	fmt.Fprintf(w, "=== %s: 3-step DDT refinement ===\n\n", r.App)
	fmt.Fprintf(w, "step 1 - application-level exploration (reference: %s)\n", r.Reference)
	fmt.Fprintf(w, "profiling ranked the candidate containers:\n%s\n", r.Profile)
	fmt.Fprintf(w, "dominant structures: %s\n", strings.Join(r.DominantRoles, ", "))
	fmt.Fprintf(w, "simulated %d combinations; %d survive the 4-metric filter (%.0f%%)\n\n",
		r.Step1.Simulations, len(r.Step1.Survivors), 100*r.Step1.SurvivorFraction())

	fmt.Fprintf(w, "step 2 - network-level exploration over %d configurations\n", len(r.Configs))
	fmt.Fprintf(w, "ran %d further simulations; total %d instead of %d exhaustive (%s reduction)\n\n",
		r.Step2.Simulations, r.Reduced, r.Exhaustive, report.Percent(r.ReductionFraction()))

	fmt.Fprintf(w, "step 3 - Pareto-level exploration\n")
	fmt.Fprintf(w, "cross-configuration Pareto-optimal set (%d combinations):\n", r.ParetoOptimal)
	var rows [][]string
	for _, p := range r.ParetoSet {
		rows = append(rows, []string{
			p.Label,
			metrics.FormatEnergy(p.Vec.Energy),
			metrics.FormatTime(p.Vec.Time),
			fmt.Sprintf("%.0f", p.Vec.Accesses),
			fmt.Sprintf("%.0fB", p.Vec.Footprint),
		})
	}
	fmt.Fprintln(w, report.Table([]string{"combination", "energy", "time", "accesses", "footprint"}, rows))

	fmt.Fprintln(w, "trade-offs among Pareto-optimal points (largest across configurations):")
	for _, met := range metrics.AllMetrics() {
		fmt.Fprintf(w, "  %-9s %s\n", met, report.Percent(r.Tradeoffs[met]))
	}
	fmt.Fprintf(w, "\nvs original (all-SLL) implementation on %s:\n", r.Reference)
	fmt.Fprintf(w, "  original     %v\n", r.Original.Vec)
	fmt.Fprintf(w, "  best energy  %v  (%s)\n", r.BestEnergy.Vec, r.BestEnergy.Label)
	fmt.Fprintf(w, "  best time    %v  (%s)\n", r.BestTime.Vec, r.BestTime.Label)
	fmt.Fprintf(w, "  savings: %s energy, %s execution time\n",
		report.Percent(r.EnergySaving), report.Percent(r.TimeSaving))
}
