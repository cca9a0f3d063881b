package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. ID is the request or op the span serves;
// a span's children carry the same ID.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"` // index into the lane's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// lane records the spans of one goroutine. Spans nest by call order:
// a span begun while another is open becomes its child, and a child
// begun with id -1 takes its parent's id. A nil lane records nothing,
// which is how the untraced runs use the same code.
type lane struct {
	name  string
	t0    time.Time
	spans []span
	open  []int
}

func (l *lane) begin(name string, id int64) int {
	if l == nil {
		return -1
	}
	parent := -1
	if len(l.open) > 0 {
		parent = l.open[len(l.open)-1]
		if id < 0 {
			id = l.spans[parent].ID
		}
	}
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: int64(time.Since(l.t0))})
	l.open = append(l.open, len(l.spans)-1)
	return len(l.spans) - 1
}

func (l *lane) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].End = int64(time.Since(l.t0))
	l.open = l.open[:len(l.open)-1]
}

// tracer owns the lanes of one run. Lanes are created before the
// goroutines that fill them start and read after they end, so the
// tracer itself needs no lock.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane returns a new lane, or nil when tracing is off.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	l := &lane{name: name, t0: t.t0}
	t.lanes = append(t.lanes, l)
	return l
}

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children. Children of one span run on its
// goroutine one after another, so their intervals do not overlap.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, l := range t.lanes {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range l.spans {
			out[s.Name] += time.Duration(s.End - s.Start - child[i])
		}
	}
	return out
}

// resolveAccounting splits the Apply spans of ops that ran a re-solve
// into the Apply span's self time and its solve and swap children. The
// three parts add up to the Apply spans' total by construction; the
// self part is the traced counterpart of online.resolve_tail_s.
func (t *tracer) resolveAccounting() (total, self, solve, swap time.Duration) {
	for _, l := range t.lanes {
		resolving := map[int]bool{}
		for _, s := range l.spans {
			if s.Name == spanSolve && s.Parent >= 0 && l.spans[s.Parent].Name == spanApply {
				resolving[s.Parent] = true
			}
		}
		for _, s := range l.spans {
			if s.Parent < 0 || !resolving[s.Parent] {
				continue
			}
			switch s.Name {
			case spanSolve:
				solve += time.Duration(s.End - s.Start)
			case spanSwap:
				swap += time.Duration(s.End - s.Start)
			}
		}
		for i := range resolving {
			total += time.Duration(l.spans[i].End - l.spans[i].Start)
		}
	}
	return total, total - solve - swap, solve, swap
}

func (t *tracer) count() int {
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// write stores every span as one JSON object per line, lane by lane.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if err := enc.Encode(struct {
				Lane string `json:"lane"`
				span
			}{l.name, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// printSelf prints each span name's self time, largest first.
func (t *tracer) printSelf() {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("# self %-24s %10.4f s\n", n, self[n].Seconds())
	}
}

// Span names, one per layer boundary the benchmark times.
const (
	spanSetup        = "setup"
	spanGraphgen     = "graphgen.build"
	spanScenario     = "scenario.generate"
	spanInitialSolve = "chitchat.initial_solve"
	spanApply        = "online.apply"
	spanSolve        = "solver.solve"
	spanSwap         = "store.swap"
	spanChitchat     = "chitchat.solve"
	spanNosy         = "nosy.solve"
	spanQuery        = "netstore.query"
	spanUpdate       = "netstore.update"
)
