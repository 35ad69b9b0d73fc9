package explore

import (
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/ddt"
)

// Capture claims: with Options.Compose, a job is composed from its
// configuration's schedule entry and one lane per role, and a live run
// of any job captures all of them at once. Without coordination,
// concurrent jobs whose pieces are still being captured would each run
// live too — so the number of live runs would grow with the worker
// count. The engine therefore keeps a registry of the schedule and lane
// keys live runs are capturing right now. A job whose missing pieces
// are all in flight waits for those captures and composes; any other
// job goes live and claims the missing pieces its run will capture.
//
// Stream jobs claim on the feeder goroutine, in dispatch order, so the
// set of jobs that run live depends only on the job order and on what
// the cache held — not on the worker count or on timing. Only such a
// dispatch-time claim may wait, and only on claims of jobs dispatched
// before it, which are on workers and run live without waiting, so a
// wait always ends. A job that finds pieces missing at run time (no
// dispatch-time claim, or a failed retry after its wait) runs live and
// claims what its run captures.

// captureClaims is the engine's registry of in-flight captures: each
// claimed key maps to the channel its owner closes once its run has
// stored the capture (or given up).
type captureClaims struct {
	mu   sync.Mutex
	keys map[string]chan struct{}
}

// capturePlan is one job's claim: the missing pieces its own live run
// will capture (own, released by closing done), or, when it owns none,
// the in-flight captures it waits for (wait).
type capturePlan struct {
	own  []string
	done chan struct{}
	wait []chan struct{}
}

// await blocks until every capture the plan waits on has finished.
func (p *capturePlan) await() {
	for _, ch := range p.wait {
		<-ch
	}
}

// composing reports whether jobs resolve by composition, the only mode
// capture claims serve.
func (e *Engine) composing() bool { return e.opts.Compose && e.cache != nil }

// claimCapture plans how jb obtains the pieces its composition needs:
// pieces already cached need nothing, pieces another run is capturing
// are waited on, and the rest are claimed for jb's own live run. It
// returns nil when every piece is cached.
func (e *Engine) claimCapture(jb Job) *capturePlan {
	run := newRunID(e.app.Name(), jb.Cfg, e.opts.packets())
	keys := make([]string, 0, len(e.roles)+1)
	keys = append(keys, run.sched())
	for _, role := range e.roles {
		keys = append(keys, run.lane(role, apps.KindFor(jb.Assign, role)))
	}
	var p *capturePlan
	e.claims.mu.Lock()
	defer e.claims.mu.Unlock()
	for _, k := range keys {
		if e.cache.captured(k) {
			continue
		}
		if p == nil {
			p = &capturePlan{}
		}
		if ch, ok := e.claims.keys[k]; ok {
			p.wait = append(p.wait, ch)
			continue
		}
		p.own = append(p.own, k)
	}
	if p != nil && len(p.own) > 0 {
		p.done = make(chan struct{})
		if e.claims.keys == nil {
			e.claims.keys = make(map[string]chan struct{})
		}
		for _, k := range p.own {
			e.claims.keys[k] = p.done
		}
	}
	return p
}

// feedClaim is claimCapture at dispatch time: nil outside compose mode
// and for jobs whose finished result is already cached (they will not
// run at all).
func (e *Engine) feedClaim(jb Job) *capturePlan {
	if !e.composing() || e.cache.has(cacheKey(e.app.Name(), jb.Cfg, jb.Assign, e.opts.packets(), e.opts.platformConfig(), e.opts.Arenas)) {
		return nil
	}
	return e.claimCapture(jb)
}

// releaseCapture drops the plan's claims and wakes their waiters. Call
// it once the owner's capture is stored, or when the owner resolved
// without running live. A nil plan, or one without claims, is a no-op.
func (e *Engine) releaseCapture(p *capturePlan) {
	if p == nil || p.done == nil {
		return
	}
	e.claims.mu.Lock()
	for _, k := range p.own {
		delete(e.claims.keys, k)
	}
	e.claims.mu.Unlock()
	close(p.done)
	p.own, p.done = nil, nil
}

// lanePair is one (role, kind) lane a survivor's composition needs.
type lanePair struct {
	role string
	kind ddt.Kind
}

// laneCover picks the step-2 survivors whose live runs capture every
// (role, kind) lane the survivor set needs: a greedy set cover that
// takes the survivor covering the most uncovered pairs, ties to the
// lowest index. It depends only on the survivor set and returns the
// picked indexes in pick order, plus each pair's position in that order.
func laneCover(survivors []Result, roles []string) ([]int, map[lanePair]int) {
	coveredBy := make(map[lanePair]int)
	picked := make([]bool, len(survivors))
	var cover []int
	for {
		best, bestGain := -1, 0
		for i, sv := range survivors {
			if picked[i] {
				continue
			}
			gain := 0
			for _, role := range roles {
				if _, ok := coveredBy[lanePair{role, apps.KindFor(sv.Assign, role)}]; !ok {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return cover, coveredBy
		}
		picked[best] = true
		for _, role := range roles {
			p := lanePair{role, apps.KindFor(survivors[best].Assign, role)}
			if _, ok := coveredBy[p]; !ok {
				coveredBy[p] = len(cover)
			}
		}
		cover = append(cover, best)
	}
}

// step2Order returns the survivor indexes in the order each
// configuration's step-2 jobs are dispatched. Composing engines run the
// lane cover first, so its live runs capture every lane the rest of the
// configuration composes from; the rest follow in order of the last
// cover run they need, so the first of them find their lanes captured
// early. Other engines keep survivor order.
func (e *Engine) step2Order(survivors []Result) []int {
	order := make([]int, 0, len(survivors))
	if !e.composing() {
		for i := range survivors {
			order = append(order, i)
		}
		return order
	}
	cover, coveredBy := laneCover(survivors, e.roles)
	order = append(order, cover...)
	inCover := make([]bool, len(survivors))
	for _, i := range cover {
		inCover[i] = true
	}
	needs := make([]int, len(survivors))
	for i, sv := range survivors {
		if inCover[i] {
			continue
		}
		for _, role := range e.roles {
			needs[i] = max(needs[i], coveredBy[lanePair{role, apps.KindFor(sv.Assign, role)}])
		}
		order = append(order, i)
	}
	rest := order[len(cover):]
	sort.SliceStable(rest, func(a, b int) bool { return needs[rest[a]] < needs[rest[b]] })
	return order
}
