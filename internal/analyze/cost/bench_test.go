package cost_test

import (
	"testing"

	"repro/internal/analyze/cost"
	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/core"
)

var predSink *cost.Prediction

// BenchmarkPredictLULESH times one `blame -static` prediction of the
// LULESH original from a cold analysis cache, as a fresh process pays it:
// the core analysis, the attribution tables and the prediction itself.
func BenchmarkPredictLULESH(b *testing.B) {
	res, err := benchprog.LULESH(benchprog.LuleshOriginal).Compile(compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := cost.DefaultOptions()
	opts.VM = devVM(devCase{nl: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ResetCache()
		predSink = cost.Predict(res.Prog, opts)
	}
}
