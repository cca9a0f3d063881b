package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"piggyback/internal/chitchat"
	"piggyback/internal/graphgen"
	"piggyback/internal/online"
	"piggyback/internal/scenario"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0.2, 1}, {0.5, 3}, {0.81, 5}, {1, 5}, {0.01, 1},
	} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// The tail is reported at the highest percentile that still leaves ten
// samples beyond it, capped at p99, and at the maximum when no
// percentile above the median does.
func TestTailLevelLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {5000, 0.99}, {500, 0.98}, {20, 0.5}, {19, 1}, {3, 1}} {
		if got := tailLevel(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	for n := 20; n <= 3000; n++ {
		q := tailLevel(n)
		if b := beyond(n, q); b < 10 {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, 100*q, b)
		}
		if q < 0.99 && beyond(n, q+1.0/float64(n)) >= 10 {
			t.Fatalf("n=%d: p%g is not the highest level with ten beyond", n, 100*q)
		}
	}
	// The 11th largest of 600 samples is the tail.
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, tailLevel(len(xs))); got != 590 {
		t.Errorf("tail of 1..600 = %v, want 590", got)
	}
}

// A request that stalls delays every request due during the stall: the
// open loop times them from their due time, not from when they were
// finally sent.
func TestOpenLoopStallAddsLatencyToLaterRequests(t *testing.T) {
	const stall = 30 * time.Millisecond
	res := runOpenLoop(60, 1000, func(i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	if res.Lat[5] < stall {
		t.Fatalf("stalled request latency %v < %v", res.Lat[5], stall)
	}
	// Request 5+k was due k ms after the stalled one, so it waited at
	// least stall - k ms before it could even be sent.
	for k := 1; k <= 20; k++ {
		min := stall - time.Duration(k)*time.Millisecond
		if res.Lat[5+k] < min || res.Late[5+k] < min {
			t.Errorf("request %d: latency %v, lateness %v, want both >= %v", 5+k, res.Lat[5+k], res.Late[5+k], min)
		}
	}
	if b := maxInt(res.Backlog); b < 20 {
		t.Errorf("backlog max %d during a %v stall at 1000 req/s, want >= 20", b, stall)
	}
	if res.Lat[59] >= res.Lat[6] {
		t.Errorf("latency did not recover after the stall: last %v, just after %v", res.Lat[59], res.Lat[6])
	}
}

func TestBacklogGrowsOnlyWhenFallingBehind(t *testing.T) {
	steady := make([]int, 1000)
	steady[100], steady[900] = 40, 40 // stalls that drain
	if backlogGrows(steady) {
		t.Error("draining stalls counted as a growing backlog")
	}
	growing := make([]int, 1000)
	for i := range growing {
		growing[i] = i / 10
	}
	if !backlogGrows(growing) {
		t.Error("a linearly growing backlog not detected")
	}
}

// sleepySolver takes a known time before delegating, so the time the
// probe books for the regional solver must cover it and the daemon's
// own share (online.resolve_tail_s) must not.
type sleepySolver struct {
	solver.Solver
	d time.Duration
}

func (s sleepySolver) SupportsRegions() bool { return true }

func (s sleepySolver) Solve(ctx context.Context, p solver.Problem) (*solver.Result, error) {
	time.Sleep(s.d)
	return s.Solver.Solve(ctx, p)
}

func TestResolveTailExcludesSolverAndSwap(t *testing.T) {
	const nap = 20 * time.Millisecond
	g := graphgen.Social(graphgen.FlickrLike(150, 3))
	rates := workload.LogDegree(g, workload.DefaultReadWriteRatio)
	trace, err := scenario.Default.Generate(scenario.FlashCrowd, g, rates, scenario.Params{Ops: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	base := chitchat.Solve(g, rates, chitchat.Config{})
	tr := newTracer()
	p := &daemonProbe{lane: tr.lane("churn"), checkEvery: 4}
	cfg := online.Config{
		Regional:       sleepySolver{solver.NewChitChat(chitchat.Config{}), nap},
		DriftThreshold: 0.01,
		CheckEvery:     4,
		BudgetFraction: -1,
	}
	if err := p.start(base, cloneRates(rates), cfg); err != nil {
		t.Fatal(err)
	}
	defer p.stop()
	for i, op := range trace {
		if _, err := p.apply(context.Background(), int64(i), op); err != nil {
			t.Fatal(err)
		}
	}
	n := len(p.solveDurs)
	if n == 0 || p.attempts != n {
		t.Fatalf("%d solver calls, %d attempts booked; the trace must trigger re-solves", n, p.attempts)
	}
	solve := sum(p.solveDurs)
	if solve < time.Duration(n)*nap {
		t.Errorf("solver time %v below %d calls × %v", solve, n, nap)
	}
	tail := p.resolveTail()
	if tail < 0 || tail > p.resolveBusy()-time.Duration(n)*nap {
		t.Errorf("resolve tail %v outside [0, busy %v - %d×%v]", tail, p.resolveBusy(), n, nap)
	}
	if got := p.resolveBusy() - solve - p.swapTime; got != tail {
		t.Errorf("resolve tail %v != busy - solve - swap = %v", tail, got)
	}
	// The spans give the same split: Apply self time of the re-solving
	// ops is the tail, up to the timer calls between span and clock.
	total, self, spanSolve, _ := tr.resolveAccounting()
	if d := self - tail; d < -time.Duration(n)*time.Millisecond || d > time.Duration(n)*time.Millisecond {
		t.Errorf("traced Apply self time %v differs from resolve tail %v by more than 1ms per re-solve", self, tail)
	}
	if spanSolve < time.Duration(n)*nap || total < self+spanSolve {
		t.Errorf("span accounting total %v, self %v, solve %v", total, self, spanSolve)
	}
}

// BENCHMARK.json declares the same workloads and metrics, with the same
// units and directions, as this program reports.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, w)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
