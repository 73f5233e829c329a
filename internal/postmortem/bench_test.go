package postmortem_test

import (
	"io"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/postmortem"
	"repro/internal/sampler"
	"repro/internal/vm"
)

var profSink *postmortem.Profile

// BenchmarkProcessLULESH times post-mortem attribution of a LULESH
// original profile (about 4000 samples, the threshold `blame` picks
// automatically) against a fresh analysis, as a fresh process pays it.
func BenchmarkProcessLULESH(b *testing.B) {
	res, err := benchprog.LULESH(benchprog.LuleshOriginal).Compile(compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.Stdout = io.Discard
	calib, err := vm.New(res.Prog, cfg).Run()
	if err != nil {
		b.Fatal(err)
	}
	threshold := calib.TotalCycles/4001 | 1
	s := sampler.New(res.Prog, threshold)
	cfg.Listener = s
	stats, err := vm.New(res.Prog, cfg).Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		an := core.Analyze(res.Prog, core.DefaultOptions())
		b.StartTimer()
		profSink = postmortem.New(res.Prog, an, s.Spawns).Process(s.Samples, threshold, stats)
	}
}
