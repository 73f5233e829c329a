package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/serve"
)

// coldBench is profile-cold (view data, what `blame -view data` does)
// and static-cold (`blame -static -lint`): one client calling
// serve.Execute(req, nil), as cmd/blame does, over salted equal-weight
// cycles of the paper's three case studies. Every request runs in a
// fresh process of its own, as a blame run does, so no request sees
// another's memos, heap or GC pacing.
type coldBench struct {
	args  runArgs
	reqs  []*serve.Request // the warm-up requests, then the timed list
	keys  []string         // reference key per request
	names []string         // program key per request
	warm  int              // how many of reqs are warm-up requests
	ref   reference
}

func coldSetup(view string, lint bool) func(a runArgs) (bench, error) {
	return func(a runArgs) (bench, error) {
		b := &coldBench{args: a}
		var progs []resolved
		for _, p := range casePrograms {
			r, err := p.resolve()
			if err != nil {
				return nil, err
			}
			progs = append(progs, r)
		}
		n := a.cycles
		if a.traced {
			// Each traced request runs twice (plain and replayed), so
			// half the cycles take the same time.
			n = (n + 1) / 2
		}
		s := newSalter(rand.New(rand.NewSource(a.seed)))
		add := func(it item) error {
			p := progs[it.Prog]
			req, err := p.request(it.Salt, view, lint)
			if err != nil {
				return err
			}
			b.reqs = append(b.reqs, req)
			b.keys = append(b.keys, refKey(p.program, viewLabel(view, lint)))
			b.names = append(b.names, p.key)
			return nil
		}
		list := cycles(s, len(progs), n)
		for i := range progs {
			if err := add(item{Prog: i, Salt: s.next()}); err != nil {
				return nil, err
			}
		}
		b.warm = len(progs)
		for _, it := range list {
			if err := add(it); err != nil {
				return nil, err
			}
		}
		var err error
		b.ref, err = loadReference(referenceJSON)
		return b, err
	}
}

// report is what a request process measured and produced.
type report struct {
	SetupS float64 `json:"setup_s"` // from the start of main to the request
	LatMs  float64 `json:"lat_ms"`
	CPUMs  float64 `json:"cpu_ms"`
	Alloc  uint64  `json:"alloc_bytes"`
	Text   string  `json:"text_sha256"`
	Output string  `json:"output_sha256"`
	// Outcome digests every byte the outcome carries (text, program
	// output, profile JSON, threshold, samples), to compare the plain
	// and the replayed run of one request.
	Outcome string `json:"outcome_sha256"`
	Err     string `json:"error,omitempty"`
	Spans   []Span `json:"spans,omitempty"` // replayed requests only

	rssMB float64
}

// request runs request i in this process, through serve.Execute or,
// with replayed, through the layer-by-layer replay, and reports it.
// start is when main began, which ends the set-up sample.
func (b *coldBench) request(i int, replayed bool, start time.Time) *report {
	if i < 0 || i >= len(b.reqs) {
		return &report{Err: fmt.Sprintf("request %d of %d", i, len(b.reqs))}
	}
	req, name := b.reqs[i], b.names[i]
	r := &report{SetupS: time.Since(start).Seconds()}
	// Drop the rest of the list, so the request starts on a heap that
	// holds little more than itself, as in a blame process.
	*b = coldBench{}
	runtime.GC()

	var (
		rec *Recorder
		out *serve.Outcome
		err error
	)
	c0, a0, t0 := cpuTime(), heapAllocs(), time.Now()
	if replayed {
		rec = NewRecorder()
		root := rec.Start(i, 0, "request")
		rec.Label(root, name)
		out, err = replay(req, nil, rec, i, root)
		rec.End(root, nil)
	} else {
		out, err = serve.Execute(req, nil)
	}
	d := time.Since(t0)
	r.CPUMs, r.Alloc, r.LatMs = ms(cpuTime()-c0), heapAllocs()-a0, ms(d)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Text, r.Output, r.Outcome = digest(out.Text), digest(out.Output), outcomeDigest(out)
	if rec != nil {
		r.Spans = rec.Spans()
	}
	return r
}

// spawn runs request i in a child process and returns its report, with
// the child's peak RSS from the kernel's accounting.
func (b *coldBench) spawn(i int, replayed bool) (*report, error) {
	extra := []string{"-request", strconv.Itoa(i)}
	if replayed {
		extra = append(extra, "-replay")
	}
	cmd, err := b.args.command(extra...)
	if err != nil {
		return nil, err
	}
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("request process: %w", err)
	}
	r := &report{}
	if err := json.Unmarshal(out, r); err != nil {
		return nil, fmt.Errorf("request process: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// check compares a report with request i's reference entry.
func (b *coldBench) check(i int, r *report) error {
	if r.Err != "" {
		return errors.New(r.Err)
	}
	return b.ref.checkDigests(b.keys[i], r.Text, r.Output)
}

// warmup runs each program once, untimed, in a request process of its
// own: the processes that follow start with the binary, the host's
// caches and the CPU in their steady state.
func (b *coldBench) warmup() error {
	for i := 0; i < b.warm; i++ {
		r, err := b.spawn(i, false)
		if err == nil {
			err = b.check(i, r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *coldBench) run() (*timed, error) {
	t := &timed{}
	for i := b.warm; i < len(b.reqs); i++ {
		t.attempted++
		r, err := b.spawn(i, false)
		if err != nil {
			t.fail(fmt.Errorf("request %d: %w", i, err))
			continue
		}
		t.setups = append(t.setups, r.SetupS)
		t.lat = append(t.lat, r.LatMs)
		t.cluster = append(t.cluster, b.names[i])
		t.wall += time.Duration(r.LatMs * float64(time.Millisecond))
		t.cpu += time.Duration(r.CPUMs * float64(time.Millisecond))
		t.alloc += r.Alloc
		t.rssMB = max(t.rssMB, r.rssMB)
		if err := b.check(i, r); err != nil {
			t.fail(fmt.Errorf("request %d: %w", i, err))
		}
	}
	return t, nil
}

// traced runs every request twice, each time in a fresh process:
// through serve.Execute and through the layer-by-layer replay,
// alternating which goes first. Both must produce the same bytes.
func (b *coldBench) traced(rec *Recorder) (map[string]float64, *timed, error) {
	t := &timed{}
	var plain, replayed []float64
	for i := b.warm; i < len(b.reqs); i++ {
		t.attempted++
		var p, r *report
		var err error
		if i%2 == 0 {
			if p, err = b.spawn(i, false); err == nil {
				r, err = b.spawn(i, true)
			}
		} else {
			if r, err = b.spawn(i, true); err == nil {
				p, err = b.spawn(i, false)
			}
		}
		if err == nil {
			err = b.check(i, p)
		}
		if err == nil {
			err = b.check(i, r)
		}
		if err == nil && p.Outcome != r.Outcome {
			err = errors.New("the replay's outcome differs from serve.Execute's")
		}
		if err != nil {
			t.fail(fmt.Errorf("request %d: %w", i, err))
			continue
		}
		plain = append(plain, p.LatMs)
		replayed = append(replayed, r.LatMs)
		rec.Add(r.Spans)
	}
	rts := requests(rec.Spans())
	m := layerMetrics(rts)
	m["trace.coverage"] = coverage(rts, "request")
	m["trace.overhead"] = median(replayed) / median(plain)
	// No server: every request executes, none hits a cache or journal.
	m["serve.exec_ms"] = median(plain)
	m["serve.exec_per_req"] = 1
	m["serve.cache_hit_ratio"] = 0
	m["serve.overhead_ms"] = 0
	m["serve.hit_ms"] = 0
	m["serve.journal_kb_per_req"] = 0
	fmt.Fprintf(os.Stderr, "layerbench: traced %d requests, %d matched serve.Execute and the reference\n", t.attempted, t.attempted-t.failed)
	return m, t, nil
}

func (b *coldBench) close() {}
