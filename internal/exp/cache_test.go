package exp

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/memo"
)

// TestProfiledShapeNoAlias pins the profKey audit: a shaped run (multi-
// locale, comm aggregation, faults) must never alias the default-shape
// cache entry for the same (program, configs).
func TestProfiledShapeNoAlias(t *testing.T) {
	prog := benchprog.Halo()
	cfgs := benchprog.HaloConfig{N: 64, Reps: 2}.Configs()

	base, err := profiled(prog, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	shaped, err := profiledShaped(prog, cfgs, runShape{locales: 4, commAgg: true})
	if err != nil {
		t.Fatal(err)
	}
	if base == shaped {
		t.Fatal("shaped run aliased the default-shape cache entry")
	}
	if base.Stats.CommMessages != 0 {
		t.Fatalf("default shape is single-locale; saw %d comm messages", base.Stats.CommMessages)
	}
	if shaped.Stats.CommMessages == 0 {
		t.Fatal("4-locale shaped run produced no comm messages")
	}

	faulted, err := profiledShaped(prog, cfgs, runShape{locales: 4, commAgg: true, faultSpec: "loss=0.05", faultSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if faulted == shaped {
		t.Fatal("faulted run aliased the fault-free shaped entry")
	}
	if faulted.Stats.Fault == nil || faulted.Stats.Fault.Sends == 0 {
		t.Fatal("faulted shape ran without the injector examining any messages")
	}
}

// TestProfiledShapeConcurrent interleaves default and shaped lookups
// (run under -race in CI): each shape computes once and every caller of
// a shape sees the same pointer.
func TestProfiledShapeConcurrent(t *testing.T) {
	prog := benchprog.Halo()
	cfgs := benchprog.HaloConfig{N: 64, Reps: 2}.Configs()
	shapes := []runShape{
		defaultShape(),
		{locales: 2},
		{locales: 2, commAgg: true},
	}
	const rounds = 4
	results := make([][]interface{}, len(shapes))
	for i := range results {
		results[i] = make([]interface{}, rounds)
	}
	var wg sync.WaitGroup
	for i, sh := range shapes {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int, sh runShape) {
				defer wg.Done()
				res, err := profiledShaped(prog, cfgs, sh)
				if err != nil {
					t.Error(err)
					return
				}
				results[i][r] = res
			}(i, r, sh)
		}
	}
	wg.Wait()
	for i := range shapes {
		for r := 1; r < rounds; r++ {
			if results[i][r] != results[i][0] {
				t.Fatalf("shape %d: round %d saw a different *blame.Result", i, r)
			}
		}
		for j := 0; j < i; j++ {
			if results[i][0] == results[j][0] {
				t.Fatalf("shapes %d and %d aliased one cache entry", i, j)
			}
		}
	}
}

// TestStageSizeEstimates: the compile, analysis and profile stages
// charge the store within 2x of the heap their values actually keep
// reachable, measured on LULESH (IR 1.4 MB, analysis 0.9 MB, profile
// 1.4 MB), so a store's byte budget bounds real memory.
func TestStageSizeEstimates(t *testing.T) {
	defer func(shared *memo.Store) { memo.Shared = shared }(memo.Shared)
	memo.Shared = memo.New(1 << 30)
	prog := benchprog.LULESH(benchprog.LuleshOriginal)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	check := func(stage string, retained int64) {
		t.Helper()
		est := memo.Shared.StageStats()[stage].Bytes
		if est*2 < retained || est > 2*retained {
			t.Errorf("%s: estimate %d bytes, retained %d", stage, est, retained)
		}
	}

	h0 := heap()
	res, err := prog.Compile(compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h1 := heap()
	check("compile", h1-h0)
	core.AnalyzeCached(res.Prog, core.DefaultOptions())
	h2 := heap()
	check("analysis", h2-h1)
	if _, err := profiled(prog, nil); err != nil {
		t.Fatal(err)
	}
	check("exp.profile", heap()-h2)
}
