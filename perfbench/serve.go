package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"piggyback/internal/chitchat"
	"piggyback/internal/core"
	"piggyback/internal/graph"
	"piggyback/internal/netstore"
	"piggyback/internal/online"
	"piggyback/internal/scenario"
	"piggyback/internal/solver"
	"piggyback/internal/store"
)

// serveSize sizes serve-feed.
type serveSize struct {
	nodes int
	// ladder is the offered request rates, increasing, in requests per
	// second. ladder[ref] is the reference rate, whose latencies are
	// reported; it runs for refShare of the measured time, and the
	// others share the rest.
	ladder   []float64
	ref      int
	refShare float64
	// closed is how many requests per second of --seconds the closed-loop
	// step after the ladder sends, to measure how many requests per
	// second the client is served.
	closed int
	// samples is how many users' feeds are compared at the end of each
	// graph's share.
	samples int
	// graphs is how many graphs of the data set (see flickrGraphs) a
	// run spreads over. The daemon's drift checks set the serving tail,
	// and a check's length depends on the graph's largest hub region.
	graphs int
}

var serveFull = serveSize{
	nodes:    3000,
	ladder:   []float64{500, 1000, 2000, 3000, 4000, 5000, 6000, 8000},
	ref:      2,
	refShare: 0.4,
	closed:   6000,
	samples:  100,
	graphs:   flickrGraphs,
}

// closedChunk is how many requests of the closed-loop step make one
// throughput sample; ops_per_s is the median over the samples of every
// graph, so a stretch of the run slowed by the host moves a few
// samples, not the figure.
const closedChunk = 1000

// churnPerRequest is how many churn ops reach the daemon per feed
// request: cmd/loadgen's default mix, 1,500 churn ops interleaved with
// 2,000 requests.
const churnPerRequest = 0.75

// churnDue is how many churn ops go with the first n requests.
func churnDue(n int) int { return int(float64(n) * churnPerRequest) }

// latencyLimit is the tail latency a ladder step must meet, together
// with no failed request, no growing backlog and the step's churn done
// within the same limit of its last request, to count towards
// loadgen.max_rate_rps. Here the daemon's drift checks alone hold the
// serving tail near a few milliseconds, because they share the two
// processors with the servers.
const latencyLimit = 10 * time.Millisecond

// defaultCheckEvery is online.Config's documented default drift-check
// period, which serve-feed's daemon runs at.
const defaultCheckEvery = 16

func runServe(r *run) { serve(r, serveFull, true) }

func checkServe(r *run) {
	serve(r, serveSize{nodes: 300, ladder: []float64{1000, 2000}, refShare: 0.5, closed: 1000, samples: 100, graphs: 1}, false)
}

// serveInputs adds the feed requests to the daemon workloads' inputs.
type serveInputs struct {
	flickrInputs
	reqs store.Trace
}

// serve is serve-feed: feed queries and updates in the paper's 5:1
// read/write ratio, sent through one netstore client to two TCP servers
// open loop at each rate of a fixed ladder, then closed loop. Beside
// the ladder stationary churn goes to a daemon, open loop at
// cmd/loadgen's proportion to the offered request rate. The run
// repeats this on each of size.graphs graphs, for its share of the
// measured time.
func serve(r *run, size serveSize, measure bool) {
	secs := r.seconds
	if !measure {
		secs = 0.5
	}
	secs /= float64(size.graphs)
	steps := make([]int, len(size.ladder)+1) // requests per step and graph; the last is closed loop
	total, ladderTotal := 0, 0
	for i := range steps {
		switch {
		case i == len(size.ladder):
			steps[i] = int(float64(size.closed) * secs)
		case i == size.ref:
			steps[i] = int(size.ladder[i] * size.refShare * secs)
		default:
			steps[i] = int(size.ladder[i] * (1 - size.refShare) / float64(len(size.ladder)-1) * secs)
		}
		total += steps[i]
		if i < len(size.ladder) {
			ladderTotal += steps[i]
		}
	}
	// Each set-up round builds the next graph's inputs, and the first
	// size.graphs builds are kept, so setup_s is the median of building
	// one graph's inputs.
	var ins []serveInputs
	round := 0
	setup(r, func(l *lane, parts map[string]time.Duration) serveInputs {
		g := round % size.graphs
		round++
		seed := r.seed<<8 + int64(g)
		in := serveInputs{flickrInputs: buildFlickr(r, l, parts, g, seed, size.nodes, scenario.Preferential, churnDue(ladderTotal))}
		in.reqs = store.GenerateTrace(in.rates, total, seed)
		if len(ins) < size.graphs {
			ins = append(ins, in)
		}
		return in
	})
	if len(ins) < size.graphs {
		return
	}

	// The daemon runs at its defaults except for a re-solve budget too
	// small for any region: drift checks still scan and extract regions
	// every 16 ops, but no re-solve ever starts, so no solver runs and a
	// re-solve change cannot move this workload.
	p := &daemonProbe{lane: r.tr.lane("churn"), checkEvery: defaultCheckEvery}
	var t serveTotals
	r.beginMeasure()
	for _, in := range ins {
		serveGraph(r, in, size, steps, p, &t)
	}
	wall := r.elapsed()
	r.endMeasure()
	if !measure {
		return
	}
	p.report(r)
	r.layer["netstore.frames_per_request"] = float64(t.frames) / float64(t.requests)
	r.layer["netstore.bytes_per_request"] = float64(t.bytes) / float64(t.requests)
	r.layer["netstore.retries"] = float64(t.retries)
	r.layer["netstore.redials"] = float64(t.redials)
	r.layer["netstore.degraded"] = float64(t.degraded)
	r.layer["netstore.query_busy_s"] = t.queryBusy.Seconds()
	r.layer["netstore.update_busy_s"] = t.updateBusy.Seconds()
	r.layer["netstore.query_p50_us"] = quantile(seconds(t.refQuery), 0.5) * 1e6
	r.layer["netstore.query_p99_us"] = quantile(seconds(t.refQuery), 0.99) * 1e6
	r.layer["netstore.update_p50_us"] = quantile(seconds(t.refUpdate), 0.5) * 1e6
	r.layer["netstore.update_p99_us"] = quantile(seconds(t.refUpdate), 0.99) * 1e6
	r.layer["loadgen.late_p99_us"] = quantile(seconds(t.refLate), 0.99) * 1e6
	r.layer["loadgen.backlog_max"] = float64(maxInt(t.refBacklog))
	r.layer["loadgen.max_rate_rps"] = quantile(t.maxRates, 0.5)

	r.e2e["ops_per_s"] = quantile(t.closedRates, 0.5)
	fmt.Printf("# closed loop: median of %d chunks of %d requests\n", len(t.closedRates), closedChunk)
	fmt.Printf("# request latency at the reference rate, %.0f req/s, over %d graphs:\n", size.ladder[size.ref], size.graphs)
	reportLatency(r, t.refLat, wall)
	// The tail is each graph's own reference-step tail, and the figure
	// their median, so a stretch of the run slowed by the host moves one
	// graph's tail, not the figure.
	r.e2e["latency_tail_ms"] = quantile(t.refTails, 0.5) * 1e3
	fmt.Printf("# reference-step tail per graph (ms): %.3f; reported: the median\n", scale(t.refTails, 1e3))
	r.e2e["cost_ratio"] = quantile(t.ratios, 0.5)
}

// serveTotals gathers serve-feed's figures over its graphs. The
// reference step's latencies are pooled, so its tail covers every graph.
type serveTotals struct {
	requests                   int
	closedRates                []float64 // requests per second of each closedChunk
	refTails                   []float64 // each graph's reference-step tail, in seconds
	queryBusy, updateBusy      time.Duration
	refLat, refLate            []time.Duration
	refQuery, refUpdate        []time.Duration
	refBacklog                 []int
	maxRates, ratios           []float64
	frames, bytes              int64
	retries, redials, degraded int
}

// serveGraph runs serve-feed's ladder and closed-loop step on one
// graph, with servers, client and daemon of its own, checks the served
// feeds and the daemon, and adds its figures to t.
func serveGraph(r *run, in serveInputs, size serveSize, steps []int, p *daemonProbe, t *serveTotals) {
	var servers []*netstore.Server
	var addrs []string
	for i := 0; i < 2; i++ {
		s, err := netstore.NewServer("127.0.0.1:0")
		if err != nil {
			r.fail("starting server: %v", err)
			return
		}
		defer s.Close()
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	client, err := netstore.DialConfigured(in.base, addrs, netstore.DialConfig{Seed: r.seed})
	if err != nil {
		r.fail("dialing servers: %v", err)
		return
	}
	defer client.Close()
	cfg := online.Config{Regional: solver.NewChitChat(chitchat.Config{}), BudgetFraction: 1e-9}
	if err := p.start(in.base, cloneRates(in.rates), cfg); err != nil {
		r.fail("starting daemon: %v", err)
		return
	}
	defer p.stop()

	ctx := context.Background()
	var churnDone, churnFailed int64
	applyChurn := func(j int) error {
		churnDone++
		_, err := p.apply(ctx, int64(j), in.trace[j])
		if err != nil {
			churnFailed++
		}
		return err
	}
	l := r.tr.lane("serve")
	var log []store.Event
	var nextID int64
	send := func(i int) error {
		req := in.reqs[i]
		start := time.Now()
		var err error
		if req.IsUpdate {
			nextID++
			ev := store.Event{User: req.User, ID: nextID, TS: nextID}
			sp := l.begin(spanUpdate, int64(i))
			err = client.Update(req.User, ev)
			l.end(sp)
			t.updateBusy += time.Since(start)
			if err == nil {
				log = append(log, ev)
			}
		} else {
			sp := l.begin(spanQuery, int64(i))
			_, err = client.Query(req.User)
			l.end(sp)
			t.queryBusy += time.Since(start)
		}
		return err
	}
	// churn applies trace ops [c0, c1) to the daemon from a second
	// goroutine, open loop at rate per second. It sleeps between ops
	// rather than spinning as the request loop does: two goroutines
	// yielding in a loop starve the network poller.
	churn := func(c0, c1 int, rate float64) *sync.WaitGroup {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			gap := float64(time.Second) / rate
			start := time.Now()
			for j := c0; j < c1; j++ {
				time.Sleep(time.Until(start.Add(time.Duration(float64(j-c0) * gap))))
				applyChurn(j)
			}
		}()
		return &wg
	}
	k := 0
	var maxRate float64
	for si, rate := range size.ladder {
		n, base := steps[si], k
		wg := churn(churnDue(base), churnDue(base+n), rate*churnPerRequest)
		res := runOpenLoop(n, rate, func(i int) error { return send(base + i) })
		requestsDone := time.Now()
		wg.Wait()
		// The daemon kept up if it finished the step's churn within the
		// latency limit of the last request.
		churnBehind := time.Since(requestsDone)
		k += n
		r.attempted += int64(n)
		r.failed += int64(res.Failed)
		xs := seconds(res.Lat)
		tail := quantile(xs, tailLevel(len(xs)))
		ok := res.Failed == 0 && tail <= latencyLimit.Seconds() && !backlogGrows(res.Backlog) && churnBehind <= latencyLimit
		if ok {
			maxRate = rate
		}
		fmt.Printf("# step %.0f req/s: %d requests, served %.0f req/s, p50/p90/p95 %.0f/%.0f/%.0f us, tail %.0f us, backlog max %d, churn done %.0f ms after, meets limit %v\n",
			rate, n, float64(n)/res.Wall.Seconds(), quantile(xs, 0.5)*1e6, quantile(xs, 0.9)*1e6, quantile(xs, 0.95)*1e6, tail*1e6, maxInt(res.Backlog), churnBehind.Seconds()*1e3, ok)
		if si == size.ref {
			t.refTails = append(t.refTails, tail)
			t.refLat = append(t.refLat, res.Lat...)
			t.refLate = append(t.refLate, res.Late...)
			t.refBacklog = append(t.refBacklog, res.Backlog...)
			for i, d := range res.Lat {
				if in.reqs[base+i].IsUpdate {
					t.refUpdate = append(t.refUpdate, d)
				} else {
					t.refQuery = append(t.refQuery, d)
				}
			}
		}
	}
	t.maxRates = append(t.maxRates, maxRate)
	// Closed loop: each request is sent as soon as the last returned,
	// with no churn beside it, so it measures what the serving tier
	// alone can serve; the ladder above measures it beside the daemon.
	n := steps[len(size.ladder)]
	start := time.Now()
	chunkStart := start
	for i := k; i < k+n; i++ {
		if send(i) != nil {
			r.failed++
		}
		if done := i - k + 1; done%closedChunk == 0 {
			now := time.Now()
			t.closedRates = append(t.closedRates, closedChunk/now.Sub(chunkStart).Seconds())
			chunkStart = now
		}
	}
	closedTime := time.Since(start)
	fmt.Printf("# closed loop: %d requests, served %.0f req/s\n", n, float64(n)/closedTime.Seconds())
	k += n
	r.attempted += int64(n)
	r.attempted += churnDone
	r.failed += churnFailed
	t.requests += k

	// Correctness: the daemon's patched schedule, and the served feeds
	// against an in-process store fed the same updates in the same order.
	t.ratios = append(t.ratios, checkDaemon(r, p.dm))
	checkFeeds(r, in.base, client, log, size.samples)
	cs := client.Stats()
	redials := cs.Redials - len(servers) // the first dial to each server counts as one
	if cs.Retries != 0 || redials != 0 || cs.DegradedQueries != 0 {
		r.fail("fault-free run saw %d retries, %d redials, %d degraded queries", cs.Retries, redials, cs.DegradedQueries)
	}
	for _, s := range servers {
		t.frames += s.Stats().Frames
	}
	t.bytes += cs.BytesRead + cs.BytesWritten
	t.retries += cs.Retries
	t.redials += redials
	t.degraded += cs.DegradedQueries
}

// checkFeeds compares the feeds of sampled users, as the TCP servers
// serve them, with an in-process store.Cluster built on the same
// schedule and fed the same updates in the same order.
func checkFeeds(r *run, base *core.Schedule, client *netstore.Client, log []store.Event, samples int) {
	ref, err := store.NewCluster(base, store.Options{Servers: 2})
	if err != nil {
		r.fail("building reference store: %v", err)
		return
	}
	defer ref.Close()
	rc := ref.NewClient()
	for _, ev := range log {
		rc.Update(ev.User, ev)
	}
	rng := rand.New(rand.NewSource(r.seed))
	n := base.Graph().NumNodes()
	for i := 0; i < samples; i++ {
		u := graph.NodeID(rng.Intn(n))
		got, err := client.Query(u)
		if err != nil {
			r.fail("query of user %d: %v", u, err)
			continue
		}
		if want := rc.Query(u); !reflect.DeepEqual(normalize(got), normalize(want)) {
			r.fail("feed of user %d: servers returned %v, reference store %v", u, got, want)
		}
	}
}

// normalize maps an empty feed to nil, so nil and empty compare equal.
func normalize(evs []store.Event) []store.Event {
	if len(evs) == 0 {
		return nil
	}
	return evs
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
