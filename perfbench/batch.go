package main

import (
	"context"
	"math"
	"time"

	"piggyback/internal/baseline"
	"piggyback/internal/graph"
	"piggyback/internal/graphgen"
	"piggyback/internal/nosy"
	"piggyback/internal/workload"
)

// twitterInput is one of batch-twitter's inputs: a Twitter-like graph,
// whose follower counts are skewed towards a few celebrities, and its
// log-degree rates.
type twitterInput struct {
	g     *graph.Graph
	rates *workload.Rates
}

// batchJob is what one job of batch-twitter computes. Jobs on the same
// input must agree in every field.
type batchJob struct {
	commits, hubCommits, nosyIterations int
	chitchatRatio, nosyRatio            float64
}

// secondsPerGraph sizes a run: one distinct graph (seed derived from
// the workload seed) per this many seconds of --seconds, and at least
// minGraphs. Spreading a run over several graphs keeps one graph's
// solve time from deciding its figures (with two graphs a run the
// ten-seed spread of the job times doubled); fixing their number by
// --seconds, not by how fast the jobs run, keeps the inputs the same
// for two versions of the program.
const (
	secondsPerGraph = 5
	minGraphs       = 3
)

// runBatch is batch-twitter: jobs of one CHITCHAT and one PARALLELNOSY
// from-scratch solve, at default workers, one after the other, one job
// per graph and then the first graph again, whose counts and cost
// ratios must repeat exactly.
func runBatch(r *run) {
	batch(r, 3000, max(minGraphs, int(math.Round(r.seconds/secondsPerGraph))))
}

func checkBatch(r *run) { batch(r, 400, 0) }

// batch runs n graphs of the given size; n = 0 is the check-only run on
// one small graph.
func batch(r *run, nodes, n int) {
	measure := n > 0
	n = max(n, 1)
	ins := setup(r, func(l *lane, parts map[string]time.Duration) []twitterInput {
		var ins []twitterInput
		timed(l, parts, spanGraphgen, func() {
			for i := 0; i < n; i++ {
				g := graphgen.Social(graphgen.TwitterLike(nodes, r.seed<<8+int64(i)))
				ins = append(ins, twitterInput{g, workload.LogDegree(g, workload.DefaultReadWriteRatio)})
			}
		})
		return ins
	})
	l := r.tr.lane("batch")
	var lat []time.Duration
	var nosyBusy time.Duration
	var chitchatRatios, nosyRatios []float64
	var iterations, dirtyEvals int
	job := func(id int64, in twitterInput) batchJob {
		var out batchJob
		hybrid := baseline.HybridCost(in.g, in.rates)

		sp := l.begin(spanChitchat, id)
		cs, cd := r.solveChitchat(in.g, in.rates)
		l.end(sp)
		out.commits = int(r.layer["chitchat.commits"])
		out.hubCommits = int(r.layer["chitchat.hub_commits"])

		dirty := 0
		cfg := nosy.Config{OnIteration: func(st nosy.IterationStat) { dirty += st.Dirty }}
		sp = l.begin(spanNosy, id)
		start := time.Now()
		res, err := nosy.SolveCtx(context.Background(), in.g, in.rates, cfg)
		nd := time.Since(start)
		l.end(sp)
		r.attempted++
		if err != nil {
			r.failed++
			r.fail("nosy solve: %v", err)
		}
		nosyBusy += nd
		out.nosyIterations = len(res.Iterations)
		iterations += len(res.Iterations)
		dirtyEvals += dirty

		if err := cs.Validate(); err != nil {
			r.fail("chitchat schedule invalid: %v", err)
		}
		if err := res.Schedule.Validate(); err != nil {
			r.fail("nosy schedule invalid: %v", err)
		}
		out.chitchatRatio = cs.Cost(in.rates) / hybrid
		out.nosyRatio = res.Schedule.Cost(in.rates) / hybrid
		chitchatRatios = append(chitchatRatios, out.chitchatRatio)
		nosyRatios = append(nosyRatios, out.nosyRatio)
		lat = append(lat, cd+nd)
		return out
	}

	r.beginMeasure()
	first := job(0, ins[0])
	for i := 1; i < len(ins); i++ {
		job(int64(i), ins[i])
	}
	again := job(int64(len(lat)), ins[0])
	wall := r.elapsed()
	r.endMeasure()
	if again != first {
		r.fail("repeat-exactly: solving the first graph again gave %+v, then %+v", first, again)
	}
	if !measure {
		return
	}
	r.layer["nosy.calls"] = float64(len(lat))
	r.layer["nosy.busy_s"] = nosyBusy.Seconds()
	r.layer["nosy.iterations"] = float64(iterations)
	r.layer["nosy.dirty_evals"] = float64(dirtyEvals)
	r.layer["nosy.cost_ratio"] = quantile(nosyRatios, 0.5)
	r.e2e["ops_per_s"] = float64(len(lat)) / sum(lat).Seconds()
	reportLatency(r, lat, wall)
	r.e2e["cost_ratio"] = quantile(chitchatRatios, 0.5)
}
