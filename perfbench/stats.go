package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1),
// sorting xs in place. It returns NaN when there are no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// tailLevel is the percentile a tail figure over n samples is reported
// at: the highest one that leaves at least ten samples beyond its
// nearest-rank position, capped at p99. With fewer than 20 samples no
// percentile above the median leaves ten beyond it, and the tail is the
// maximum (level 1).
func tailLevel(n int) float64 {
	if n < 20 {
		return 1
	}
	// Ten samples strictly beyond rank ceil(q·n) means q·n <= n-10.
	return math.Min(0.99, float64(n-10)/float64(n))
}

// beyond counts the samples strictly above the nearest-rank position of
// level q among n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// scale returns xs, each multiplied by k.
func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// seconds converts durations to float seconds for the quantile helpers.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// openLoop is one fixed-rate step of an open-loop generator: request i
// is due at start + i/rate whether or not earlier requests finished, so
// a slow request delays the ones due after it and that wait is counted.
type openLoop struct {
	// Lat is each request's latency from when it was due to when it
	// completed; Late is how long after its due time it was sent.
	Lat, Late []time.Duration
	// Backlog is, at each send, how many later requests were already
	// due and still waiting.
	Backlog []int
	Failed  int
	// Wall runs from the first due time to the last completion.
	Wall time.Duration
}

// runOpenLoop sends n requests at rate per second through do, from one
// goroutine, and times each from its due time.
func runOpenLoop(n int, rate float64, do func(i int) error) openLoop {
	res := openLoop{
		Lat:     make([]time.Duration, n),
		Late:    make([]time.Duration, n),
		Backlog: make([]int, n),
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		waitUntil(due)
		sent := time.Now()
		if err := do(i); err != nil {
			res.Failed++
		}
		res.Lat[i] = time.Since(due)
		res.Late[i] = sent.Sub(due)
		dueBySend := int(sent.Sub(start).Seconds()*rate) + 1
		if b := dueBySend - (i + 1); b > 0 {
			res.Backlog[i] = b
		}
	}
	res.Wall = time.Since(start)
	return res
}

// waitUntil returns at t. It sleeps while t is far away and yields the
// processor for the last two milliseconds: an idle Go runtime rounds
// short sleeps up to a millisecond, which would show up as generator
// lateness at the sub-millisecond gaps of the higher rates.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > 2*time.Millisecond {
			time.Sleep(d - 2*time.Millisecond)
			continue
		}
		runtime.Gosched()
	}
}

// backlogGrows reports whether the generator fell further behind over
// the step: the mean backlog of the second half exceeds that of the
// first half by more than 1% of the step's requests (at least 5). Below
// capacity, stalls come and go and the backlog drains; above it, the
// backlog grows with every request.
func backlogGrows(backlog []int) bool {
	n := len(backlog)
	if n < 2 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(backlog[n/2:])-mean(backlog[:n/2]) > math.Max(5, 0.01*float64(n))
}
