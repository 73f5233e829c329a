// Command layerbench is the repository's benchmark. It times the
// profiling pipeline (compile → core → vm+sampler → postmortem → views,
// as served by cmd/blame and cmd/blamed) end to end on one of three
// workloads and, in a separate traced run, layer by layer. METRICS.md
// gives the workloads, the metrics, what each layer metric should move,
// and the noise controls with the numbers behind them.
//
// Run it from the repository root:
//
//	bash layerbench/run.sh --workload profile-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// bench is one workload after set-up.
type bench interface {
	// warmup runs untimed requests so that timing starts with code
	// paths, heap and CPU in their steady state.
	warmup() error
	// run makes the timed, untraced pass over the request list,
	// including the set-up samples of setup_s.
	run() (*timed, error)
	// traced replays the request list layer by layer, recording spans,
	// and returns the per-layer metrics.
	traced(rec *Recorder) (map[string]float64, *timed, error)
	close()
}

// timed is what the untraced pass measured.
type timed struct {
	lat       []float64 // latency of each request that executed, ms
	cluster   []string  // program key of each entry of lat
	hits      []float64 // latency of each cache hit (serve-views), ms; not in lat
	setups    []float64 // set-up times, s
	wall      time.Duration
	cpu       time.Duration
	alloc     uint64
	rssMB     float64 // peak RSS of the process(es) that ran the requests
	attempted int
	failed    int
}

func (t *timed) fail(err error) {
	t.failed++
	fmt.Fprintf(os.Stderr, "layerbench: failed: %v\n", err)
}

// runArgs identifies one run: its workload, its request list and
// whether it is traced. Child processes get the same values, so they
// build the same list.
type runArgs struct {
	workload string
	seed     int64
	cycles   int // length of the request list, in cycles of its programs
	traced   bool
}

// command starts this binary as a child of the run, with extra flags
// (-setup-only or -request). LAYERBENCH_CHILD lets a test binary,
// whose TestMain checks it, act as this command.
func (a runArgs) command(extra ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if a.traced {
		trace = "1"
	}
	args := append([]string{"-workload", a.workload, "-seed", strconv.FormatInt(a.seed, 10),
		"-cycles", strconv.Itoa(a.cycles), "-trace", trace}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "LAYERBENCH_CHILD=1")
	cmd.Stderr = os.Stderr
	return cmd, nil
}

type workload struct {
	setup func(a runArgs) (bench, error)
	// cycle is the nominal wall time of one cycle of the request list on
	// the reference host (2 vCPU Xeon, go1.24). The list holds
	// max(minCycles, seconds/cycle) cycles: its length is fixed by
	// --seconds alone, so every commit measures the same work, and
	// minCycles leaves at least ten samples beyond p90.
	cycle     time.Duration
	minCycles int
	// procs is the run's GOMAXPROCS (0 = one per CPU). The cold
	// workloads' pipeline is sequential, so their only parallel work is
	// the GC's background marking; with a second P, how much of it
	// overlaps a request depends on whether the host schedules the
	// second vCPU at that moment, which METRICS.md shows to be the
	// largest source of run-to-run spread.
	procs int
}

var workloads = map[string]workload{
	"profile-cold": {setup: coldSetup("data", false), cycle: 1150 * time.Millisecond, minCycles: 34, procs: 1},
	"static-cold":  {setup: coldSetup("static", true), cycle: 600 * time.Millisecond, minCycles: 34, procs: 1},
	"serve-views":  {setup: serveSetup, cycle: 1250 * time.Millisecond, minCycles: 9},
}

// setupReps is how many fresh processes serve-views sets up in to
// measure setup_s, their median. The cold workloads take a set-up
// sample from every request's process instead.
const setupReps = 15

// workDir holds everything a run writes (spans, serve-views journals),
// relative to the repository root the benchmark runs from.
var workDir = filepath.Join(".bench_build", "layerbench")

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	var (
		name      = flag.String("workload", "", "profile-cold | static-cold | serve-views")
		seed      = flag.Int64("seed", 1, "seed of the request list (order and salts)")
		seconds   = flag.Int("seconds", 30, "nominal measuring time; fixes the request list's length")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		writeRef  = flag.String("write-reference", "", "write the reference digests to `file` and exit")
		table     = flag.Bool("table", false, "print the per-layer baseline table from the span files named as arguments and exit")
		cycles    = flag.Int("cycles", 0, "length of the request list in cycles, instead of deriving it from -seconds (child processes)")
		setupOnly = flag.Bool("setup-only", false, "set the workload up, print \"ready\" and the set-up time and exit (how serve-views measures setup_s)")
		request   = flag.Int("request", -1, "run request `i` of a cold workload's list in this process, print its report and exit")
		replayed  = flag.Bool("replay", false, "with -request, run the request through the layer-by-layer replay")
	)
	flag.Parse()
	switch {
	case *writeRef != "":
		if err := writeReference(*writeRef); err != nil {
			fatal(err)
		}
		return
	case *table:
		if err := printTable(flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: layerbench --workload profile-cold|static-cold|serve-views --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	a := runArgs{workload: *name, seed: *seed, cycles: *cycles, traced: *trace == 1}
	if a.cycles == 0 {
		a.cycles = int(math.Round(float64(*seconds) * float64(time.Second) / float64(w.cycle)))
		if a.cycles < w.minCycles {
			a.cycles = w.minCycles
		}
	}
	switch {
	case *setupOnly:
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			fatal(err)
		}
		b, err := w.setup(a)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ready %g\n", time.Since(start).Seconds())
		b.close()
		return
	case *request >= 0:
		b, err := w.setup(a)
		if err != nil {
			fatal(err)
		}
		cb, ok := b.(*coldBench)
		if !ok {
			fatal(fmt.Errorf("-request: %s runs no request processes", *name))
		}
		out, err := json.Marshal(cb.request(*request, *replayed, start))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	res, err := runWorkload(w, a)
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "layerbench: %v\n", err)
	os.Exit(1)
}

func runWorkload(w workload, a runArgs) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	b, err := w.setup(a)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer b.close()
	if err := b.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()

	if a.traced {
		rec := NewRecorder()
		layers, t, err := b.traced(rec)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", a.workload, a.seed))
		if err := rec.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "layerbench: %d spans written to %s\n", len(rec.Spans()), path)
		writeTable(os.Stderr, rec.Spans())
		m := map[string]metric{}
		for k, v := range layers {
			m[k] = metric{v, layerUnit(k)}
		}
		return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
	}

	t, err := b.run()
	if err != nil {
		return nil, err
	}
	p50, err := percentile(t.lat, 0.50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(t.lat, 0.90)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "layerbench: %s seed %d: %d requests (%d failed) in %.1fs, p50 %.1f ms, p90 %.1f ms\n",
		a.workload, a.seed, t.attempted, t.failed, t.wall.Seconds(), p50, p90)
	writeClusters(os.Stderr, t, p50, p90)
	if len(t.hits) > 0 {
		fmt.Fprintf(os.Stderr, "layerbench:   %d cache hits (median %.2f ms) are not in p50 and p90\n", len(t.hits), median(t.hits))
	}
	per := float64(t.attempted)
	return &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(t.setups), "s"},
			"req_per_s":        {per / t.wall.Seconds(), "1/s"},
			"p50_ms":           {p50, "ms"},
			"p90_ms":           {p90, "ms"},
			"cpu_ms_per_req":   {ms(t.cpu) / per, "ms"},
			"alloc_mb_per_req": {float64(t.alloc) / mb / per, "MB"},
			"peak_rss_mb":      {t.rssMB, "MB"},
		},
	}, nil
}

// writeClusters prints each program's latency cluster, fastest first,
// with the ranks it would take if clusters did not overlap and how many
// of its requests lie at or below p50 and p90: whether each percentile
// falls inside one cluster.
func writeClusters(w io.Writer, t *timed, p50, p90 float64) {
	by := map[string][]float64{}
	for i, l := range t.lat {
		by[t.cluster[i]] = append(by[t.cluster[i]], l)
	}
	names := make([]string, 0, len(by))
	for k := range by {
		sort.Float64s(by[k])
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return median(by[names[i]]) < median(by[names[j]]) })
	rank := 0
	for _, k := range names {
		xs := by[k]
		below := func(p float64) int { return sort.SearchFloat64s(xs, math.Nextafter(p, math.Inf(1))) }
		fmt.Fprintf(w, "layerbench:   %-24s ranks %3d-%3d, median %7.2f ms (%.2f-%.2f), %3d <= p50, %3d <= p90\n",
			k, rank+1, rank+len(xs), median(xs), xs[0], xs[len(xs)-1], below(p50), below(p90))
		rank += len(xs)
	}
}

// timeSetup starts this binary with -setup-only and returns the set-up
// time it reports: from the start of main until the workload is ready
// (input generation, loading the reference and, for serve-views,
// serve.New with its journal open and /readyz answering). Process start
// (exec, runtime and package initialization) is left out: it is the
// operating system's figure, and on the reference host it made up most
// of a cold workload's set-up and drifted in steps of tens of percent.
func timeSetup(a runArgs) (float64, error) {
	cmd, err := a.command("-setup-only")
	if err != nil {
		return 0, err
	}
	out, err := cmd.Output()
	var d float64
	if err == nil {
		_, err = fmt.Sscanf(string(out), "ready %g\n", &d)
	}
	if err != nil {
		return 0, fmt.Errorf("set-up process: %q, %v", out, err)
	}
	return d, nil
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.HasSuffix(name, ".ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "ns_per_instr"):
		return "ns"
	case strings.HasSuffix(name, "us_per_sample"):
		return "us"
	case strings.HasSuffix(name, "kb_per_req"):
		return "KB"
	case strings.HasPrefix(name, "trace.") || strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_per_req"):
		return "ratio"
	}
	return "count"
}

// printTable merges span files and prints the baseline table.
func printTable(paths []string) error {
	if len(paths) == 0 {
		return errors.New("-table needs span files")
	}
	var all []Span
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var spans []Span
		if err := json.Unmarshal(b, &spans); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		// Keep the IDs of different files apart.
		off := (i + 1) << 24
		for j := range spans {
			spans[j].Req += off
			spans[j].ID += off
			if spans[j].Parent != 0 {
				spans[j].Parent += off
			}
		}
		all = append(all, spans...)
	}
	writeTable(os.Stdout, all)
	return nil
}
