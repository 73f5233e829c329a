package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, made from the benchmark's own
// code around the layer's public entry point.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Req    int    `json:"req"`    // request the span belongs to
	Name   string `json:"name"`
	Prog   string `json:"prog,omitempty"` // set on root spans only
	Start  int64  `json:"start_ns"`       // since the recorder's epoch
	End    int64  `json:"end_ns"`
	// Alloc is the heap bytes the whole process allocated while the span
	// was open. Every workload runs one request at a time, so it is the
	// request's own, plus in serve-views what the server allocated for
	// HTTP beside it.
	Alloc uint64 `json:"alloc_bytes"`
	// Counts is the work the layer did, in its own units (IR
	// instructions, VM instructions, samples, messages).
	Counts map[string]int64 `json:"counts,omitempty"`

	alloc0 uint64
}

func (s *Span) dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. Safe for
// concurrent use.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span and returns its ID.
func (r *Recorder) Start(req, parent int, name string) int {
	a := heapAllocs()
	t := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: int64(t), alloc0: a})
	return len(r.spans)
}

// End closes span id, attaching the layer's work counts (may be nil).
func (r *Recorder) End(id int, counts map[string]int64) {
	t := time.Since(r.epoch)
	a := heapAllocs()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End, s.Alloc, s.Counts = int64(t), a-s.alloc0, counts
}

// Label names the program a root span's request ran.
func (r *Recorder) Label(id int, prog string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Prog = prog
}

// Add records spans recorded elsewhere (by a request process),
// renumbering their IDs after the spans already held.
func (r *Recorder) Add(spans []Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	off := len(r.spans)
	for _, s := range spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		r.spans = append(r.spans, s)
	}
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// reqTrace is one request's spans with self times derived: a span's
// self time is its duration minus the part its children cover.
type reqTrace struct {
	Req   int
	Prog  string
	Root  *Span
	self  map[string]int64  // ns, summed over spans of one name
	alloc map[string]uint64 // self bytes
	dur   map[string]int64  // total ns including children
	count map[string]int64
}

// requests groups spans by request and derives self times.
func requests(spans []Span) []*reqTrace {
	byReq := map[int]*reqTrace{}
	childDur := map[int]int64{}
	childAlloc := map[int]uint64{}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 {
			childDur[s.Parent] += s.dur()
			childAlloc[s.Parent] += s.Alloc
		}
	}
	var out []*reqTrace
	for i := range spans {
		s := &spans[i]
		rt := byReq[s.Req]
		if rt == nil {
			rt = &reqTrace{Req: s.Req, self: map[string]int64{}, alloc: map[string]uint64{},
				dur: map[string]int64{}, count: map[string]int64{}}
			byReq[s.Req] = rt
			out = append(out, rt)
		}
		if s.Parent == 0 {
			rt.Root, rt.Prog = s, s.Prog
		}
		rt.self[s.Name] += s.dur() - childDur[s.ID]
		if a := childAlloc[s.ID]; a < s.Alloc {
			rt.alloc[s.Name] += s.Alloc - a
		}
		rt.dur[s.Name] += s.dur()
		for k, v := range s.Counts {
			rt.count[k] += v
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Req < out[j].Req })
	return out
}

// coverage is the share of the pipeline's traced time that layer spans
// account for: the sum of the layer spans' self times over the summed
// durations of the spans named outer, which wrap the pipeline ("request"
// in the cold workloads, "serve.run" in serve-views). Spans outside the
// pipeline (client, HTTP handler) count on neither side.
func coverage(rts []*reqTrace, outer string) float64 {
	var covered, total int64
	for _, rt := range rts {
		if _, ok := rt.dur[outer]; !ok {
			continue
		}
		total += rt.dur[outer]
		for name, ns := range rt.self {
			if !wrapperSpans[name] {
				covered += ns
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// wrapperSpans are the spans the benchmark opens around the pipeline
// rather than around a layer call.
var wrapperSpans = map[string]bool{"request": true, "client": true, "serve.http": true, "serve.run": true}

// layerMetrics derives the per-layer metrics from the requests that ran
// the pipeline (those with a compile span). Times and allocations are
// medians per request; counts are means per request, which repeat
// exactly because every run is made of whole equal-weight cycles.
func layerMetrics(rts []*reqTrace) map[string]float64 {
	var pipe []*reqTrace
	for _, rt := range rts {
		if _, ok := rt.dur["compile.parse"]; ok {
			pipe = append(pipe, rt)
		}
	}
	per := func(f func(rt *reqTrace) float64) []float64 {
		xs := make([]float64, len(pipe))
		for i, rt := range pipe {
			xs[i] = f(rt)
		}
		return xs
	}
	selfMs := func(name string) float64 {
		return median(per(func(rt *reqTrace) float64 { return float64(rt.self[name]) / 1e6 }))
	}
	allocMB := func(names ...string) float64 {
		return median(per(func(rt *reqTrace) float64 {
			var b uint64
			for _, n := range names {
				b += rt.alloc[n]
			}
			return float64(b) / mb
		}))
	}
	count := func(key string) float64 {
		return mean(per(func(rt *reqTrace) float64 { return float64(rt.count[key]) }))
	}
	ratio := func(f func(rt *reqTrace) (num, den float64)) float64 {
		return median(per(func(rt *reqTrace) float64 {
			n, d := f(rt)
			if d == 0 {
				return 0
			}
			return n / d
		}))
	}
	return map[string]float64{
		"compile.parse_ms":    selfMs("compile.parse"),
		"compile.sem_ms":      selfMs("compile.sem"),
		"compile.irgen_ms":    selfMs("compile.irgen"),
		"compile.ir_instrs":   count("ir_instrs"),
		"core.analyze_ms":     selfMs("core.analyze"),
		"core.alloc_mb":       allocMB("core.analyze"),
		"analyze.commplan_ms": selfMs("analyze.commplan"),
		"analyze.lint_ms":     selfMs("analyze.lint"),
		"cost.predict_ms":     selfMs("cost.predict"),
		"cost.alloc_mb":       allocMB("cost.predict"),
		"vm.calib_ms":         selfMs("vm.calib"),
		"vm.profiled_ms":      selfMs("vm.profiled"),
		"vm.ns_per_instr": ratio(func(rt *reqTrace) (float64, float64) {
			return float64(rt.self["vm.calib"]), float64(rt.count["calib_instrs"])
		}),
		"vm.alloc_mb": allocMB("vm.calib", "vm.profiled"),
		"vm.instrs":   count("instrs"),
		"sampler.overhead_ms": median(per(func(rt *reqTrace) float64 {
			return float64(rt.self["vm.profiled"]-rt.self["vm.calib"]) / 1e6
		})),
		"sampler.samples": count("samples"),
		"postmortem.ms":   selfMs("postmortem.process"),
		"postmortem.us_per_sample": ratio(func(rt *reqTrace) (float64, float64) {
			return float64(rt.self["postmortem.process"]) / 1e3, float64(rt.count["samples"])
		}),
		"postmortem.alloc_mb": allocMB("postmortem.process"),
		"postmortem.json_ms":  selfMs("postmortem.json"),
		"comm.messages":       count("messages"),
		"views.render_ms":     selfMs("views.render"),
	}
}

// baselineLayers are the columns of the per-layer baseline table: the
// ROADMAP's compile / core / calibration / profiled / post-mortem /
// cost.Predict split.
var baselineLayers = []struct{ title, span string }{
	{"compile", "compile"},
	{"core analysis", "core.analyze"},
	{"calibration run", "vm.calib"},
	{"profiled run", "vm.profiled"},
	{"post-mortem", "postmortem.process"},
	{"`cost.Predict`", "cost.predict"},
}

// writeTable prints, from the spans of one or more traced runs, each
// program's median self time per baseline layer with its range over
// requests, as a Markdown table. A layer a program's requests never
// entered prints as "—".
func writeTable(w io.Writer, spans []Span) {
	byProg := map[string][]*reqTrace{}
	for _, rt := range requests(spans) {
		if _, ok := rt.dur["compile.parse"]; ok {
			byProg[rt.Prog] = append(byProg[rt.Prog], rt)
		}
	}
	progs := make([]string, 0, len(byProg))
	for p := range byProg {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	fmt.Fprint(w, "| program |")
	for _, l := range baselineLayers {
		fmt.Fprintf(w, " %s |", l.title)
	}
	fmt.Fprint(w, "\n|---|")
	fmt.Fprint(w, strings.Repeat("---|", len(baselineLayers)))
	fmt.Fprintln(w)
	for _, p := range progs {
		fmt.Fprintf(w, "| %s |", p)
		for _, l := range baselineLayers {
			var xs []float64
			for _, rt := range byProg[p] {
				var ns int64
				for name, v := range rt.self {
					if name == l.span || strings.HasPrefix(name, l.span+".") {
						ns += v
					}
				}
				if ns > 0 {
					xs = append(xs, float64(ns)/1e6)
				}
			}
			if len(xs) == 0 {
				fmt.Fprint(w, " — |")
				continue
			}
			sort.Float64s(xs)
			fmt.Fprintf(w, " %.1f ms (%.1f–%.1f, n=%d) |", median(xs), xs[0], xs[len(xs)-1], len(xs))
		}
		fmt.Fprintln(w)
	}
}
