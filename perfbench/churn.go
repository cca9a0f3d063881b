package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/online"
	"piggyback/internal/scenario"
	"piggyback/internal/solver"
	"piggyback/internal/workload"
)

// flickrInputs are the inputs of the two daemon workloads: a
// Flickr-like graph with log-degree rates, a churn trace over it and the
// CHITCHAT schedule the daemon starts from.
type flickrInputs struct {
	g     *graph.Graph
	rates *workload.Rates
	trace []workload.ChurnOp
	base  *core.Schedule
}

// flickrGraphs is how many graphs each daemon workload spreads a run
// over. Graph i is FlickrLike with seed i+1, the same in every run: the
// graphs are the benchmark's data set, like the paper's crawls, and the
// workload seed draws the churn and the requests on them. Whether a
// flash crowd's re-solves are ever accepted turns mostly on the graph:
// on about two generated graphs in five every attempt is reverted, and
// such a crowd runs at about 48 ops/s against about 30 for the others,
// so graphs drawn from the workload seed made the throughput bimodal.
// Graphs 1 and 3 accepted re-solves under every trace seed tried and
// graph 2 reverted them all under most, so a run covers both kinds and
// at most one of its three crowds usually runs in the fast mode.
const flickrGraphs = 3

// buildFlickr makes the inputs of one daemon workload: graph i of the
// data set (see flickrGraphs) and a trace of the named scenario,
// traceOps ops long, drawn from traceSeed. The CHITCHAT seed schedule
// is timed as its own layer and its last progress event is kept for
// the commit counts.
func buildFlickr(r *run, l *lane, parts map[string]time.Duration, i int, traceSeed int64, nodes int, scen string, traceOps int) flickrInputs {
	var in flickrInputs
	timed(l, parts, spanGraphgen, func() {
		in.g = graphgen.Social(graphgen.FlickrLike(nodes, int64(i+1)))
		in.rates = workload.LogDegree(in.g, workload.DefaultReadWriteRatio)
	})
	timed(l, parts, spanScenario, func() {
		tr, err := scenario.Default.Generate(scen, in.g, in.rates, scenario.Params{Ops: traceOps, Seed: traceSeed})
		if err != nil {
			r.fail("generating %s trace: %v", scen, err)
		}
		in.trace = tr
	})
	timed(l, parts, spanInitialSolve, func() {
		in.base, _ = r.solveChitchat(in.g, in.rates)
	})
	return in
}

// solveChitchat solves g from scratch through chitchat.SolveCtx and
// books the call in the chitchat layer; the commit counts come from its
// last progress event.
func (r *run) solveChitchat(g *graph.Graph, rates *workload.Rates) (*core.Schedule, time.Duration) {
	var last chitchat.Progress
	cfg := chitchat.Config{OnProgress: func(p chitchat.Progress) { last = p }}
	start := time.Now()
	s, err := chitchat.SolveCtx(context.Background(), g, rates, cfg)
	d := time.Since(start)
	r.attempted++
	if err != nil {
		r.failed++
		r.fail("chitchat solve: %v", err)
	}
	r.layer["chitchat.calls"]++
	r.layer["chitchat.busy_s"] += d.Seconds()
	r.layer["chitchat.commits"] = float64(last.Commits)
	r.layer["chitchat.hub_commits"] = float64(last.HubCommits)
	return s, d
}

// cloneRates copies rates; the daemon mutates the ones it is given.
func cloneRates(r *workload.Rates) *workload.Rates {
	return &workload.Rates{
		Prod: append([]float64(nil), r.Prod...),
		Cons: append([]float64(nil), r.Cons...),
	}
}

// checkDaemon is the correctness check of a daemon after a replay: the
// schedule is Theorem-1 valid and its running cost equals the cost of a
// freshly materialized copy. It returns the live cost over the hybrid
// cost of the live graph.
func checkDaemon(r *run, dm *online.Daemon) float64 {
	if err := dm.Validate(); err != nil {
		r.fail("daemon schedule invalid: %v", err)
	}
	g, s := dm.Snapshot()
	fresh := s.Cost(dm.Rates())
	if math.Abs(fresh-dm.Cost()) > 1e-9*math.Max(1, math.Abs(fresh)) {
		r.fail("daemon running cost %.12g differs from fresh cost %.12g", dm.Cost(), fresh)
	}
	return dm.Cost() / baseline.HybridCost(g, dm.Rates())
}

// churnConfig is the zoo's daemon configuration: re-solve once a
// region's dirt passes 5% of its mass, check every 8 ops, no budget
// cap, CHITCHAT as the regional solver.
func churnConfig() online.Config {
	return online.Config{
		Regional:       solver.NewChitChat(chitchat.Config{}),
		DriftThreshold: 0.05,
		CheckEvery:     8,
		BudgetFraction: -1,
	}
}

// churnSize sizes churn-flashcrowd. At 3,000 nodes a re-solve region is
// about a fifth of the edges, so the daemon's localized re-solve is
// local; at the zoo's 300 nodes every region is the whole graph.
type churnSize struct {
	nodes, traceOps, graphs int
}

// churnTraceOps is the length of one flash-crowd trace. The generator
// spreads the celebrity's 12 ramp steps over the spike (the second
// quarter of the trace) and its ~36 decay steps 1/128 of the trace length
// apart, so a trace needs several hundred ops before those rate updates
// stop crowding out the follows: at 500 they are about a tenth of the
// ops, at 100 about half. Most re-solves come in the spike and the
// decay, so a longer trace costs little more time; at 300 ops most
// crowds end before any re-solve is accepted.
const churnTraceOps = 500

// runChurn is churn-flashcrowd: a flash-crowd trace per graph, replayed
// closed loop through a daemon of its own, then one trace again, whose
// counts must repeat exactly. The traces come from the workload seed;
// --seconds does not change the run.
func runChurn(r *run) {
	churn(r, churnSize{nodes: 3000, traceOps: churnTraceOps, graphs: flickrGraphs}, true)
}

func checkChurn(r *run) { churn(r, churnSize{nodes: 250, traceOps: 100, graphs: 1}, false) }

func churn(r *run, size churnSize, measure bool) {
	// Each set-up round builds the next graph's inputs, and the first
	// size.graphs builds are kept, so setup_s is the median of building
	// one graph's inputs.
	var ins []flickrInputs
	round := 0
	setup(r, func(l *lane, parts map[string]time.Duration) flickrInputs {
		g := round % size.graphs
		round++
		in := buildFlickr(r, l, parts, g, r.seed<<8+int64(g), size.nodes, scenario.FlashCrowd, size.traceOps)
		if len(ins) < size.graphs {
			ins = append(ins, in)
		}
		return in
	})
	if len(ins) < size.graphs {
		return
	}
	type outcome struct {
		attempts, accepts, reverts int
		costRatio                  float64
	}
	p := &daemonProbe{lane: r.tr.lane("churn"), checkEvery: churnConfig().CheckEvery}
	replay := func(in flickrInputs) (outcome, []time.Duration) {
		att, acc, rev := p.attempts, p.accepts, p.reverts
		if err := p.start(in.base, cloneRates(in.rates), churnConfig()); err != nil {
			r.fail("starting daemon: %v", err)
			return outcome{}, nil
		}
		defer p.stop()
		ctx := context.Background()
		lat := make([]time.Duration, 0, len(in.trace))
		for _, op := range in.trace {
			r.attempted++
			d, err := p.apply(ctx, r.attempted, op)
			lat = append(lat, d)
			if err != nil {
				r.failed++
			}
		}
		if p.swapErr != nil {
			r.fail("cluster swap: %v", p.swapErr)
		}
		ratio := checkDaemon(r, p.dm)
		return outcome{p.attempts - att, p.accepts - acc, p.reverts - rev, ratio}, lat
	}

	var lat []time.Duration
	var opsPerS, ratios []float64
	outs := make([]outcome, len(ins))
	r.beginMeasure()
	for i, in := range ins {
		o, l := replay(in)
		outs[i] = o
		lat = append(lat, l...)
		opsPerS = append(opsPerS, float64(len(l))/sum(l).Seconds())
		ratios = append(ratios, o.costRatio)
		if measure {
			fmt.Printf("# graph %d: %d ops at %.2f ops/s, %d re-solve attempts, %d accepted\n",
				i, len(l), opsPerS[i], o.attempts, o.accepts)
		}
	}
	// The repeat replays the trace with the fewest re-solve attempts,
	// the cheapest one to run again.
	k := 0
	for i, o := range outs {
		if o.attempts < outs[k].attempts {
			k = i
		}
	}
	again, _ := replay(ins[k])
	wall := r.elapsed()
	r.endMeasure()
	if again != outs[k] {
		r.fail("repeat-exactly: replaying graph %d's trace gave %+v, then %+v", k, outs[k], again)
	}
	if !measure {
		return
	}
	p.report(r)
	// Throughput is each graph's own and the figure their median, so
	// that one crowd whose re-solves are all reverted (and that runs
	// much faster) does not move it; latency is over every op of the
	// first replays. The repeat is a check only.
	r.e2e["ops_per_s"] = quantile(opsPerS, 0.5)
	reportLatency(r, lat, wall)
	r.e2e["cost_ratio"] = quantile(ratios, 0.5)
}

// reportLatency books the median and tail of lat as the end-to-end
// latency and prints the tail's percentile and sample count.
func reportLatency(r *run, lat []time.Duration, wall float64) {
	xs := seconds(lat)
	q := tailLevel(len(xs))
	r.e2e["latency_p50_ms"] = quantile(xs, 0.5) * 1e3
	r.e2e["latency_tail_ms"] = quantile(xs, q) * 1e3
	fmt.Printf("# latency over %d samples in %.2f s measured: tail is p%g with %d samples beyond it\n",
		len(xs), wall, 100*q, beyond(len(xs), q))
}
