package explore

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/astream"
	"repro/internal/energy"
	"repro/internal/memsim"
	"repro/internal/platform"
)

// ReplayPlatforms evaluates every whole-run capture in the cache against
// the given platform configurations, storing the exact
// per-platform results back into the cache — the warm pass of a platform
// sweep. The platforms are grouped into line-size geometry families
// (platform.LineFamilies); per capture, each family is served, in order
// of preference:
//
//   - by pure arithmetic from a cached reuse profile covering every
//     missing family member — zero decode, zero probes;
//   - by one all-geometry probe pass (astream.ReplayComposedMultiProfiled
//     over the capture's one-lane schedule): the lane is decoded exactly
//     once for all remaining families, a
//     single memsim.GeomSim walk per family yields every member's exact
//     counts, and the reuse profiles stay in the cache so the next
//     sweep over this identity is arithmetic.
//
// The per-capture units are independent, so they fan out across a
// bounded worker pool (GOMAXPROCS workers), each reusing the pooled
// replay scratch. Platforms a capture already has finished results for
// are skipped, as are captures that fail to decode (they fall back to
// live execution on demand). It returns the number of (capture,
// platform) evaluations performed.
func ReplayPlatforms(c *Cache, platforms []memsim.Config) int {
	if c == nil || len(platforms) == 0 {
		return 0
	}
	models := make([]energy.Model, len(platforms))
	for i, pc := range platforms {
		models[i] = energy.CACTILike(pc)
	}
	families := platform.LineFamilies(platforms)

	units := c.runEntries()
	if len(units) == 0 {
		return 0
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(units) {
		workers = len(units)
	}
	var (
		n    atomic.Int64
		wg   sync.WaitGroup
		feed = make(chan runEntry)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for e := range feed {
				n.Add(int64(replayPlatformsForRun(c, e, families, platforms, models)))
			}
		}()
	}
	for _, e := range units {
		feed <- e
	}
	close(feed)
	wg.Wait()
	return int(n.Load())
}

// replayPlatformsForRun performs one capture's warm-pass unit, returning
// the number of (capture, platform) evaluations it stored.
func replayPlatformsForRun(c *Cache, e runEntry, families []platform.LineFamily, platforms []memsim.Config, models []energy.Model) int {
	skey := streamKey(e.App, e.Cfg, e.Assign, e.Packets, e.Arenas)
	store := func(i int, cost astream.Cost) {
		c.store(cacheKey(e.App, e.Cfg, e.Assign, e.Packets, platforms[i], e.Arenas), Result{
			App:     e.App,
			Config:  e.Cfg,
			Assign:  e.Assign,
			Vec:     replayVector(platforms[i], models[i], cost),
			Summary: e.Summary,
		}, "")
	}

	// Per family: nothing missing, profile arithmetic, or queue for the
	// probe pass. A queued family enters the pass whole — not just its
	// missing members — so the profile it leaves covers the family's
	// full cross product.
	n := 0
	var rest []int
	for _, fam := range families {
		missing := fam.Indexes[:0:0]
		for _, i := range fam.Indexes {
			if !c.has(cacheKey(e.App, e.Cfg, e.Assign, e.Packets, platforms[i], e.Arenas)) {
				missing = append(missing, i)
			}
		}
		if len(missing) == 0 {
			continue
		}
		if p := c.lookupReuseProfile(reuseProfileKey(skey, fam.LineBytes)); p != nil {
			costs := make([]astream.Cost, len(missing))
			served := true
			for j, i := range missing {
				var ok bool
				if costs[j], ok = astream.CostFromProfile(p, platforms[i]); !ok {
					served = false
					break
				}
			}
			if served {
				for j, i := range missing {
					store(i, costs[j])
				}
				n += len(missing)
				continue
			}
		}
		rest = append(rest, fam.Indexes...)
	}
	if len(rest) == 0 {
		return n
	}

	// One decode of the lane drives every queued family's kernel.
	cfgs := make([]memsim.Config, len(rest))
	for j, i := range rest {
		cfgs[j] = platforms[i]
	}
	costs, profs, err := astream.ReplayComposedMultiProfiled(e.Sched, []*astream.SubStream{e.Ambient}, cfgs)
	if err != nil {
		return n
	}
	for _, p := range profs {
		c.storeReuseProfile(reuseProfileKey(skey, p.LineBytes), p)
	}
	for j, i := range rest {
		if !c.has(cacheKey(e.App, e.Cfg, e.Assign, e.Packets, platforms[i], e.Arenas)) {
			store(i, costs[j])
			n++
		}
	}
	return n
}
