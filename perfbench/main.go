// Command perfbench is the repository's benchmark. It runs one workload
// per process and prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured without
// spans; with -trace 1 they are the per-layer ones, from a run that also
// records a span at every layer boundary the benchmark calls into.
// Lines before the last start with "#" and are for people: the host,
// every metric with its unit, and the span self times of a traced run.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload churn-flashcrowd --seed 1 --seconds 10 --trace 0
//
// Without --workload (or with --workload all) every workload runs, each
// in its own child process, and the exit code is non-zero if any
// correctness or repeat-exactly check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadDef is one benchmark workload. run measures it at full size;
// check runs only its correctness checks, on a small instance, so a
// second seed is checked in every invocation at little cost.
type workloadDef struct {
	name  string
	run   func(r *run)
	check func(r *run)
}

var workloads = []workloadDef{
	{"churn-flashcrowd", runChurn, checkChurn},
	{"serve-feed", runServe, checkServe},
	{"batch-twitter", runBatch, checkBatch},
}

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of each workload sees. Every
// workload reports every one, each for its own unit of work: a churn op
// (churn-flashcrowd), a feed request (serve-feed) or a batch job of one
// CHITCHAT and one PARALLELNOSY solve (batch-twitter).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"cost_ratio", "ratio", "lower"},
	{"success_rate", "fraction", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers. A workload that does not
// call into a layer reports its figures as 0.
var perLayer = []metricDef{
	{"graphgen.build_s", "s", "lower"},
	{"scenario.generate_s", "s", "lower"},
	{"chitchat.initial_solve_s", "s", "lower"},
	{"online.ops", "count", "higher"},
	{"online.patch_p50_us", "us", "lower"},
	{"online.patch_p99_us", "us", "lower"},
	{"online.check_count", "count", "lower"},
	{"online.check_p50_us", "us", "lower"},
	{"online.resolve_attempts", "count", "lower"},
	{"online.resolves", "count", "higher"},
	{"online.reverted", "count", "lower"},
	{"online.accept_ratio", "fraction", "higher"},
	{"online.resolve_busy_s", "s", "lower"},
	{"online.wasted_s", "s", "lower"},
	{"online.resolve_tail_s", "s", "lower"},
	{"online.region_fraction_p50", "fraction", "lower"},
	{"online.resolve_to_live_p50_ms", "ms", "lower"},
	{"online.resolve_to_live_n", "count", "higher"},
	{"solver.calls", "count", "lower"},
	{"solver.busy_s", "s", "lower"},
	{"solver.p50_ms", "ms", "lower"},
	{"solver.region_edges", "count", "lower"},
	{"solver.errors", "count", "lower"},
	{"store.swaps", "count", "higher"},
	{"store.swap_s", "s", "lower"},
	{"chitchat.calls", "count", "higher"},
	{"chitchat.busy_s", "s", "lower"},
	{"chitchat.commits", "count", "lower"},
	{"chitchat.hub_commits", "count", "higher"},
	{"nosy.calls", "count", "higher"},
	{"nosy.busy_s", "s", "lower"},
	{"nosy.iterations", "count", "lower"},
	{"nosy.dirty_evals", "count", "lower"},
	{"nosy.cost_ratio", "ratio", "lower"},
	{"netstore.query_p50_us", "us", "lower"},
	{"netstore.query_p99_us", "us", "lower"},
	{"netstore.update_p50_us", "us", "lower"},
	{"netstore.update_p99_us", "us", "lower"},
	{"netstore.query_busy_s", "s", "lower"},
	{"netstore.update_busy_s", "s", "lower"},
	{"netstore.frames_per_request", "count", "lower"},
	{"netstore.bytes_per_request", "B", "lower"},
	{"netstore.retries", "count", "lower"},
	{"netstore.redials", "count", "lower"},
	{"netstore.degraded", "count", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"loadgen.backlog_max", "count", "lower"},
	{"loadgen.max_rate_rps", "1/s", "higher"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.resolve_apply_self_s", "s", "lower"},
	{"self.online.apply_s", "s", "lower"},
	{"self.solver.solve_s", "s", "lower"},
	{"self.store.swap_s", "s", "lower"},
	{"self.chitchat.solve_s", "s", "lower"},
	{"self.nosy.solve_s", "s", "lower"},
	{"self.netstore.query_s", "s", "lower"},
	{"self.netstore.update_s", "s", "lower"},
}

// run is the state of one workload invocation.
type run struct {
	workload  string
	seed      int64
	seconds   float64
	tr        *tracer // nil unless -trace 1
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	failures  []string

	setups       []time.Duration
	memBefore    runtime.MemStats
	measureStart time.Time
	cpuBefore    [2]float64
	reportHost   bool // print the host's stolen CPU share; off for the second-seed check
}

func newRun(workload string, seed int64, secs float64, traced bool) *run {
	r := &run{
		workload: workload,
		seed:     seed,
		seconds:  secs,
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// fail records a failed correctness check; the run then reports
// "correct": false and exits non-zero.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Printf("# CHECK FAILED (%s, seed %d): %s\n", r.workload, r.seed, msg)
}

// A run builds its inputs at least minSetupRounds times, and more, up
// to maxSetupRounds, while the builds so far took less than
// setupBudget; setup_s and the set-up layer figures are the medians.
// Cheap set-ups are repeated more, so their median is not one
// millisecond-scale sample's noise.
const (
	minSetupRounds = 3
	maxSetupRounds = 25
	setupBudget    = time.Second
)

// setup builds a workload's inputs repeatedly and returns the last
// build. Earlier builds are dropped before the next starts, so only one
// is resident. build reports its own layer timings in parts.
func setup[T any](r *run, build func(l *lane, parts map[string]time.Duration) T) T {
	var out T
	partSamples := map[string][]float64{}
	l := r.tr.lane(spanSetup)
	for i := 0; i < minSetupRounds || (i < maxSetupRounds && sum(r.setups) < setupBudget); i++ {
		var zero T
		out = zero // drop the previous build before the next one
		runtime.GC()
		parts := map[string]time.Duration{}
		sp := l.begin(spanSetup, int64(i))
		start := time.Now()
		out = build(l, parts)
		r.setups = append(r.setups, time.Since(start))
		l.end(sp)
		for k, d := range parts {
			partSamples[k] = append(partSamples[k], d.Seconds())
		}
	}
	for k, xs := range partSamples {
		r.layer[k] = quantile(xs, 0.5)
	}
	r.e2e["setup_s"] = quantile(seconds(r.setups), 0.5)
	return out
}

// timed runs fn inside a span on l and books its duration in parts.
func timed(l *lane, parts map[string]time.Duration, name string, fn func()) {
	sp := l.begin(name, -1)
	start := time.Now()
	fn()
	parts[name+"_s"] = time.Since(start)
	l.end(sp)
}

// beginMeasure marks the start of the measured phase for the runtime
// counters.
func (r *run) beginMeasure() {
	runtime.GC()
	runtime.ReadMemStats(&r.memBefore)
	r.cpuBefore = hostCPU()
	r.measureStart = time.Now()
}

func (r *run) endMeasure() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.layer["runtime.alloc_mb"] = float64(m.TotalAlloc-r.memBefore.TotalAlloc) / 1e6
	r.layer["runtime.gc_cycles"] = float64(m.NumGC - r.memBefore.NumGC)
	if after := hostCPU(); r.reportHost && after[0] > r.cpuBefore[0] {
		fmt.Printf("# host: %.1f%% of CPU time was stolen by the hypervisor during the measured phase\n",
			100*(after[1]-r.cpuBefore[1])/(after[0]-r.cpuBefore[0]))
	}
}

// hostCPU reads the machine's total and stolen CPU time, in ticks, from
// /proc/stat; zeros where it is not available. On a shared virtual
// machine, stolen time slows every timing, and the share is printed so
// an outlying run can be told from a slower program.
func hostCPU() [2]float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return [2]float64{}
	}
	var total, steal float64
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return [2]float64{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return [2]float64{total, steal}
}

// elapsed is the time since beginMeasure.
func (r *run) elapsed() float64 { return time.Since(r.measureStart).Seconds() }

// finish fills the metrics every workload reports the same way and the
// trace figures.
func (r *run) finish() {
	if r.attempted > 0 {
		r.e2e["success_rate"] = 1 - float64(r.failed)/float64(r.attempted)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.e2e["peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
	} else {
		r.fail("reading peak RSS: %v", err)
	}
	if r.tr == nil {
		return
	}
	r.layer["trace.spans"] = float64(r.tr.count())
	for name, d := range r.tr.selfTimes() {
		key := "self." + name + "_s"
		if _, ok := metricIndex[key]; ok {
			r.layer[key] = d.Seconds()
		}
	}
	total, self, solve, swap := r.tr.resolveAccounting()
	r.layer["trace.resolve_apply_self_s"] = self.Seconds()
	if total > 0 {
		fmt.Printf("# traced re-solving Apply spans: %.4f s = Apply self %.4f s + regional solve %.4f s + swap %.4f s\n",
			total.Seconds(), self.Seconds(), solve.Seconds(), swap.Seconds())
		fmt.Printf("# traced Apply self time %.4f s against online.resolve_tail_s %.4f s from the same run's timers\n",
			self.Seconds(), r.layer["online.resolve_tail_s"])
	}
	r.tr.printSelf()
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err := r.tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Printf("# spans written to %s\n", path)
	}
}

var metricIndex = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d
	}
	return m
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result prints every metric of the chosen set with its unit and
// returns the final JSON object. A metric no code path set is a layer
// the workload does not call into, and reads 0; so does a percentile of
// no samples.
func (r *run) result(traced bool) result {
	defs := endToEnd
	vals := r.e2e
	if traced {
		defs, vals = perLayer, r.layer
	}
	for k := range r.e2e {
		mustKnow(k)
	}
	for k := range r.layer {
		mustKnow(k)
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := finite(vals[d.name])
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("# %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	if !traced {
		// The layer figures that come from timers and counters, not
		// spans, are measured in this run too; printed for comparison
		// with a traced run.
		for _, d := range perLayer {
			if v, ok := r.layer[d.name]; ok {
				fmt.Printf("# layer %-26s %14.6g %s\n", d.name, finite(v), d.unit)
			}
		}
	}
	return res
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func mustKnow(name string) {
	if _, ok := metricIndex[name]; !ok {
		panic("perfbench: metric " + name + " is not declared")
	}
}

// host describes the machine a result was measured on; figures are
// comparable only between runs on the same host.
func host(seed int64) map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        model,
		"go":         runtime.Version(),
		"seed":       seed,
	}
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Float64("seconds", 10, "size of the measured phase, in seconds of offered load (serve-feed) or of solved graphs (batch-twitter); churn-flashcrowd replays a fixed amount")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.Parse()
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *secs, *trace))
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	hb, _ := json.Marshal(host(*seed))
	fmt.Printf("# host %s\n", hb)

	r := newRun(w.name, *seed, *secs, *trace == 1)
	r.reportHost = true
	w.run(r)
	r.finish()

	// The same checks, once more on a second seed and a small instance.
	second := newRun(w.name, *seed+1, *secs, false)
	w.check(second)
	for _, f := range second.failures {
		r.failures = append(r.failures, fmt.Sprintf("seed %d: %s", second.seed, f))
	}
	if second.failed > 0 {
		r.failures = append(r.failures, fmt.Sprintf("seed %d: %d of %d operations failed", second.seed, second.failed, second.attempted))
	}

	res := r.result(*trace == 1)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in its own child process, so each has its
// own peak RSS, and prints every metric by workload.
func runAll(seed int64, secs float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	summary := map[string]result{}
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: starting %s: %v\n", w.name, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Printf("[%s] %s\n", w.name, last)
		}
		if err := cmd.Wait(); err != nil {
			fmt.Printf("# %s failed: %v\n", w.name, err)
			code = 1
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			fmt.Printf("# %s printed no result\n", w.name)
			code = 1
			continue
		}
		summary[w.name] = res
	}
	fmt.Println("# summary")
	for _, w := range workloads {
		res, ok := summary[w.name]
		if !ok {
			continue
		}
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Printf("# %s correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
		for _, n := range names {
			fmt.Printf("#   %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}
