package main

import (
	"context"
	"time"

	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/online"
	"piggyback/internal/solver"
	"piggyback/internal/store"
	"piggyback/internal/workload"
)

// daemonProbe times one online.Daemon from outside: every op goes
// through apply (around Daemon.ApplyCtx), every localized re-solve
// through the middleware returned by middleware (around the regional
// solver), and every accepted splice through the OnSplice hook, which
// swaps the plan into a store.Cluster. Nothing inside the daemon is
// changed. A probe is used from one goroutine, as the daemon is.
type daemonProbe struct {
	dm         *online.Daemon
	cluster    *store.Cluster
	lane       *lane
	checkEvery int

	op         int64     // id of the op in flight, shared with its child spans
	applyStart time.Time // start of the Apply in flight

	// Apply durations by what the op did: a plain patch, a drift check
	// that made no re-solve attempt, or one or more re-solve attempts.
	patch, check, resolving []time.Duration
	wasted                  time.Duration // Apply time of ops whose attempts were all reverted
	attempts, accepts       int
	reverts                 int

	solveDurs    []time.Duration
	regionFrac   []float64
	regionEdges  int
	solveErrors  int
	swaps        int
	swapTime     time.Duration
	swapErr      error
	resolveLives []time.Duration // Apply start to Swap return, per accepted re-solve
}

// start begins a replay: a fresh daemon on base with cfg, its regional
// solver wrapped in the probe's timing middleware, and a fresh
// store.Cluster that receives every accepted splice. Samples and
// counters keep accumulating across replays. cfg.Regional must be set.
func (p *daemonProbe) start(base *core.Schedule, rates *workload.Rates, cfg online.Config) error {
	cfg.Regional = solver.Chain(cfg.Regional, p.middleware())
	dm, err := online.New(base, rates, cfg)
	if err != nil {
		return err
	}
	cluster, err := store.NewCluster(base, store.Options{Servers: 2})
	if err != nil {
		return err
	}
	p.dm, p.cluster = dm, cluster
	dm.OnSplice = p.onSplice
	return nil
}

// stop ends the replay started last.
func (p *daemonProbe) stop() { p.cluster.Close() }

// apply runs one op through Daemon.ApplyCtx and books its duration by
// what the op did, read from the daemon's public Stats before and after.
func (p *daemonProbe) apply(ctx context.Context, id int64, op workload.ChurnOp) (time.Duration, error) {
	before := p.dm.Stats()
	p.op = id
	sp := p.lane.begin(spanApply, id)
	p.applyStart = time.Now()
	err := p.dm.ApplyCtx(ctx, op)
	d := time.Since(p.applyStart)
	p.lane.end(sp)
	if err != nil {
		return d, err
	}
	after := p.dm.Stats()
	acc := after.Resolves - before.Resolves
	rev := after.Reverted - before.Reverted
	errs := after.SolverErrors - before.SolverErrors
	p.accepts += acc
	p.reverts += rev
	switch {
	case acc+rev+errs > 0:
		p.attempts += acc + rev + errs
		p.resolving = append(p.resolving, d)
		if acc == 0 {
			p.wasted += d
		}
	case after.Ops%p.checkEvery == 0:
		// The daemon checks drift after every checkEvery-th op.
		p.check = append(p.check, d)
	default:
		p.patch = append(p.patch, d)
	}
	return d, nil
}

// middleware is the benchmark-owned solver.Middleware around the
// daemon's regional solver: it times each call and reads the region
// size against the live graph it was asked to re-solve.
func (p *daemonProbe) middleware() solver.Middleware {
	return func(next solver.Solver) solver.Solver { return &timedSolver{next: next, p: p} }
}

type timedSolver struct {
	next solver.Solver
	p    *daemonProbe
}

func (t *timedSolver) Name() string          { return t.next.Name() }
func (t *timedSolver) SupportsRegions() bool { return solver.SupportsRegions(t.next) }

func (t *timedSolver) Solve(ctx context.Context, pr solver.Problem) (*solver.Result, error) {
	p := t.p
	sp := p.lane.begin(spanSolve, p.op)
	start := time.Now()
	res, err := t.next.Solve(ctx, pr)
	p.solveDurs = append(p.solveDurs, time.Since(start))
	p.lane.end(sp)
	if m := pr.Graph.NumEdges(); m > 0 {
		p.regionFrac = append(p.regionFrac, float64(len(pr.Region))/float64(m))
	}
	p.regionEdges += len(pr.Region)
	if res == nil {
		p.solveErrors++
	}
	return res, err
}

// onSplice puts an accepted re-solve live in the serving cluster.
func (p *daemonProbe) onSplice(_ *graph.Graph, s *core.Schedule) {
	sp := p.lane.begin(spanSwap, p.op)
	start := time.Now()
	if err := p.cluster.Swap(s); err != nil && p.swapErr == nil {
		p.swapErr = err
	}
	now := time.Now()
	p.lane.end(sp)
	p.swaps++
	p.swapTime += now.Sub(start)
	p.resolveLives = append(p.resolveLives, now.Sub(p.applyStart))
}

// resolveBusy is the Apply time of ops that made re-solve attempts.
func (p *daemonProbe) resolveBusy() time.Duration { return sum(p.resolving) }

// resolveTail is the part of resolveBusy spent in neither the regional
// solver nor the swap: the daemon's own rebase, refine, amortize,
// rebuild and lower-bound work.
func (p *daemonProbe) resolveTail() time.Duration {
	return p.resolveBusy() - sum(p.solveDurs) - p.swapTime
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// report books the probe's per-layer figures into r.
func (p *daemonProbe) report(r *run) {
	r.layer["online.ops"] = float64(len(p.patch) + len(p.check) + len(p.resolving))
	r.layer["online.patch_p50_us"] = quantile(seconds(p.patch), 0.5) * 1e6
	r.layer["online.patch_p99_us"] = quantile(seconds(p.patch), 0.99) * 1e6
	r.layer["online.check_count"] = float64(len(p.check))
	r.layer["online.check_p50_us"] = quantile(seconds(p.check), 0.5) * 1e6
	r.layer["online.resolve_attempts"] = float64(p.attempts)
	r.layer["online.resolves"] = float64(p.accepts)
	r.layer["online.reverted"] = float64(p.reverts)
	if p.attempts > 0 {
		r.layer["online.accept_ratio"] = float64(p.accepts) / float64(p.attempts)
	}
	r.layer["online.resolve_busy_s"] = p.resolveBusy().Seconds()
	r.layer["online.wasted_s"] = p.wasted.Seconds()
	r.layer["online.resolve_tail_s"] = p.resolveTail().Seconds()
	r.layer["online.region_fraction_p50"] = quantile(append([]float64(nil), p.regionFrac...), 0.5)
	r.layer["online.resolve_to_live_p50_ms"] = quantile(seconds(p.resolveLives), 0.5) * 1e3
	r.layer["online.resolve_to_live_n"] = float64(len(p.resolveLives))
	r.layer["solver.calls"] = float64(len(p.solveDurs))
	r.layer["solver.busy_s"] = sum(p.solveDurs).Seconds()
	r.layer["solver.p50_ms"] = quantile(seconds(p.solveDurs), 0.5) * 1e3
	r.layer["solver.region_edges"] = float64(p.regionEdges)
	r.layer["solver.errors"] = float64(p.solveErrors)
	r.layer["store.swaps"] = float64(p.swaps)
	r.layer["store.swap_s"] = p.swapTime.Seconds()
}
