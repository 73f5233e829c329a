package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// call is one serve-views request.
type call struct {
	rid  int    // request ID, unique in the run
	prog string // program key
	ref  string // reference key
	key  string // serve.Request.Key(), to find the call from inside the server
	body []byte
}

// serveBench is serve-views: an in-process blamed (serve.New defaults,
// journal in a temp dir) on loopback HTTP, driven by one closed-loop
// client. Each session submits one salted multi-locale program and asks
// for views data, code, comm and hybrid, then data again: four
// executions beside one cache hit. A second client, one per CPU of the
// reference host, doubled the run-to-run spread of every timing (see
// the noise controls in METRICS.md).
type serveBench struct {
	calls []call // in order
	warm  []call
	byKey map[string]int // Request.Key() → rid
	ref   reference
	srv   *server
	log   *execLog // traced runs only
	args  runArgs
}

func serveSetup(a runArgs) (bench, error) {
	var progs []resolved
	for _, p := range servePrograms {
		r, err := p.resolve()
		if err != nil {
			return nil, err
		}
		progs = append(progs, r)
	}
	b := &serveBench{byKey: map[string]int{}, args: a}
	s := newSalter(rand.New(rand.NewSource(a.seed)))
	rid := 0
	sessions := func(items []item) ([]call, error) {
		var out []call
		for _, it := range items {
			p := progs[it.Prog]
			for _, view := range sessionViews {
				req, err := p.request(it.Salt, view, false)
				if err != nil {
					return nil, err
				}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				c := call{rid: rid, prog: p.key, ref: refKey(p.program, view), key: req.Key(), body: body}
				if _, dup := b.byKey[c.key]; !dup {
					b.byKey[c.key] = rid
				}
				out = append(out, c)
				rid++
			}
		}
		return out, nil
	}
	var err error
	if b.calls, err = sessions(cycles(s, len(progs), a.cycles)); err != nil {
		return nil, err
	}
	if b.warm, err = sessions(cycles(s, len(progs), 1)); err != nil {
		return nil, err
	}
	if b.ref, err = loadReference(referenceJSON); err != nil {
		return nil, err
	}
	var run serve.RunFunc
	if a.traced {
		b.log = &execLog{d: map[string]time.Duration{}}
		run = timedExecute(b.log)
	}
	b.srv, err = bootServer(run, nil)
	return b, err
}

// execLog records each execution's wall time by request key.
type execLog struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

func timedExecute(log *execLog) serve.RunFunc {
	return func(req *serve.Request, ctl *serve.RunControl) (*serve.Outcome, error) {
		start := time.Now()
		out, err := serve.Execute(req, ctl)
		d := time.Since(start)
		log.mu.Lock()
		log.d[req.Key()] = d
		log.mu.Unlock()
		return out, err
	}
}

// server is one in-process blamed on a loopback port.
type server struct {
	s      *serve.Server
	hs     *http.Server
	url    string
	dir    string
	served chan error
	client *http.Client
}

// bootServer starts serve.New with default options and a journal in a
// fresh directory under workDir, and returns once /readyz answers.
// run substitutes the pipeline (nil = serve.Execute); wrap, if set,
// wraps the HTTP handler.
func bootServer(run serve.RunFunc, wrap func(http.Handler) http.Handler) (*server, error) {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sv := &server{
		s:      serve.New(serve.Options{Journal: filepath.Join(dir, "outcomes.journal"), Run: run}),
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{}},
	}
	h := sv.s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	sv.hs = &http.Server{Handler: h}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := sv.client.Get(sv.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		if time.Now().After(deadline) {
			sv.close()
			return nil, fmt.Errorf("server not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops the HTTP server, drains the scheduler, closes the
// journal and removes the journal directory.
func (sv *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sv.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: http shutdown: %v\n", err)
	}
	<-sv.served
	sv.s.Close()
	sv.client.CloseIdleConnections()
	os.RemoveAll(sv.dir)
}

func (sv *server) snapshot() (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	resp, err := sv.client.Get(sv.url + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// reply is the part of a submit?wait=1 response the benchmark checks.
type reply struct {
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Text   string `json:"text"`
	Output string `json:"output"`
	Error  string `json:"error"`
}

// outcome is what one call observed.
type outcome struct {
	lat    time.Duration
	cached bool
	err    error
}

// submit sends one call and waits for its result. The latency covers
// the request until the response body is fully read; decoding and the
// reference check come after.
func (sv *server) submit(c call, ref reference, rec *Recorder) outcome {
	hreq, err := http.NewRequest(http.MethodPost, sv.url+"/v1/submit?wait=1", bytes.NewReader(c.body))
	if err != nil {
		return outcome{err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	root := 0
	if rec != nil {
		root = rec.Start(c.rid, 0, "client")
		rec.Label(root, c.prog)
		hreq.Header.Set("X-Layerbench-Req", strconv.Itoa(c.rid))
		hreq.Header.Set("X-Layerbench-Span", strconv.Itoa(root))
	}
	start := time.Now()
	resp, err := sv.client.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o := outcome{lat: time.Since(start)}
	if rec != nil {
		rec.End(root, nil)
	}
	if err != nil {
		o.err = err
		return o
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		o.err = fmt.Errorf("status %d: %w", resp.StatusCode, err)
		return o
	}
	o.cached = r.Cached
	if resp.StatusCode != http.StatusOK || r.State != "done" {
		o.err = fmt.Errorf("status %d, state %q: %s", resp.StatusCode, r.State, r.Error)
		return o
	}
	o.err = ref.check(c.ref, r.Text, r.Output)
	return o
}

// drive sends the calls one after another, each when the reply to the
// one before has been read, and returns each call's outcome by rid and
// the wall time from the first send to the last reply.
func (sv *server) drive(list []call, ref reference, rec *Recorder) (map[int]outcome, time.Duration) {
	out := map[int]outcome{}
	start := time.Now()
	for _, c := range list {
		out[c.rid] = sv.submit(c, ref, rec)
		// Collect the heap between calls, so that no execution pays
		// for garbage the calls before it left. The collection counts
		// in the wall and CPU time of the pass, not in any request's
		// latency.
		runtime.GC()
	}
	return out, time.Since(start)
}

func (b *serveBench) warmup() error {
	outs, _ := b.srv.drive(b.warm, b.ref, nil)
	for _, o := range outs {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// phase is one timed pass of a server over some calls.
type phase struct {
	outs      map[int]outcome
	t         *timed
	executed  uint64
	hits      uint64
	misses    uint64
	journalKB float64
}

func (b *serveBench) measure(sv *server, list []call, rec *Recorder) (*phase, error) {
	before, err := sv.snapshot()
	if err != nil {
		return nil, err
	}
	c0, a0 := cpuTime(), heapAllocs()
	outs, wall := sv.drive(list, b.ref, rec)
	t := &timed{wall: wall, cpu: cpuTime() - c0, alloc: heapAllocs() - a0}
	after, err := sv.snapshot()
	if err != nil {
		return nil, err
	}
	for _, c := range list {
		o := outs[c.rid]
		if o.cached {
			t.hits = append(t.hits, ms(o.lat))
		} else {
			t.lat = append(t.lat, ms(o.lat))
			t.cluster = append(t.cluster, c.prog)
		}
		t.attempted++
		if o.err != nil {
			t.fail(fmt.Errorf("request %d (%s): %w", c.rid, c.ref, o.err))
		}
	}
	return &phase{
		outs:      outs,
		t:         t,
		executed:  after.Executed - before.Executed,
		hits:      after.Cache.Hits - before.Cache.Hits,
		misses:    after.Cache.Misses - before.Cache.Misses,
		journalKB: float64(after.Journal.Bytes-before.Journal.Bytes) / 1024,
	}, nil
}

func (b *serveBench) run() (*timed, error) {
	// The set-up processes run before and after the timed pass, not
	// during it, where they would compete with it for the CPUs.
	var setups []float64
	setup := func(reps int) error {
		for i := 0; i < reps; i++ {
			d, err := timeSetup(b.args)
			if err != nil {
				return err
			}
			setups = append(setups, d)
		}
		return nil
	}
	if err := setup(setupReps / 2); err != nil {
		return nil, err
	}
	p, err := b.measure(b.srv, b.calls, nil)
	if err != nil {
		return nil, err
	}
	if err := setup(setupReps - setupReps/2); err != nil {
		return nil, err
	}
	p.t.setups = setups
	p.t.rssMB = peakRSSMB()
	return p.t, nil
}

// split cuts the list after its first half of cycles.
func split(list []call) (first, second []call) {
	sessions := len(list) / len(sessionViews)
	cut := (sessions / 2 / len(servePrograms)) * len(servePrograms) * len(sessionViews)
	return list[:cut], list[cut:]
}

// traced measures the first half of the sessions untraced, on the
// server set up with a timing wrapper around serve.Execute, and the
// second half on a fresh server whose pipeline is the layer-by-layer
// replay. Serving metrics come from the first phase, layer metrics from
// the second; the ratio of their p50s is the tracing overhead.
func (b *serveBench) traced(rec *Recorder) (map[string]float64, *timed, error) {
	first, second := split(b.calls)
	a, err := b.measure(b.srv, first, nil)
	if err != nil {
		return nil, nil, err
	}

	var httpSpans sync.Map // rid → serve.http span ID
	run := func(req *serve.Request, ctl *serve.RunControl) (*serve.Outcome, error) {
		rid, ok := b.byKey[req.Key()]
		if !ok {
			return nil, errors.New("replay: request not in the run's list")
		}
		v, _ := httpSpans.Load(rid)
		parent, _ := v.(int) // 0 (a root span) if no handler span was stored
		id := rec.Start(rid, parent, "serve.run")
		defer rec.End(id, nil)
		return replay(req, ctl, rec, rid, id)
	}
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rid, err := strconv.Atoi(r.Header.Get("X-Layerbench-Req"))
			if err != nil {
				h.ServeHTTP(w, r)
				return
			}
			parent, _ := strconv.Atoi(r.Header.Get("X-Layerbench-Span"))
			id := rec.Start(rid, parent, "serve.http")
			httpSpans.Store(rid, id)
			h.ServeHTTP(w, r)
			rec.End(id, nil)
		})
	}
	sv, err := bootServer(run, wrap)
	if err != nil {
		return nil, nil, err
	}
	defer sv.close()
	bp, err := b.measure(sv, second, rec)
	if err != nil {
		return nil, nil, err
	}

	rts := requests(rec.Spans())
	m := layerMetrics(rts)
	m["trace.coverage"] = coverage(rts, "serve.run")
	m["trace.overhead"] = median(bp.t.lat) / median(a.t.lat)

	// Serving metrics of the untraced phase.
	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	var execs, overheads, hits []float64
	for _, c := range first {
		o := a.outs[c.rid]
		if o.cached {
			hits = append(hits, ms(o.lat))
			continue
		}
		if d, ok := b.log.d[c.key]; ok {
			execs = append(execs, ms(d))
			overheads = append(overheads, ms(o.lat-d))
		}
	}
	n := float64(a.t.attempted)
	m["serve.exec_ms"] = median(execs)
	m["serve.overhead_ms"] = median(overheads)
	m["serve.hit_ms"] = median(hits)
	m["serve.exec_per_req"] = float64(a.executed) / n
	m["serve.cache_hit_ratio"] = float64(a.hits) / float64(a.hits+a.misses)
	m["serve.journal_kb_per_req"] = a.journalKB / n

	t := a.t
	t.attempted += bp.t.attempted
	t.failed += bp.t.failed
	return m, t, nil
}

func (b *serveBench) close() { b.srv.close() }
