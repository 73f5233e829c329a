package compile_test

import (
	"sync"
	"testing"

	"repro/internal/compile"
)

const cacheSrc = `
config const n = 4;
var total: int;
for i in 1..n {
  total = total + i;
}
writeln(total);
`

// TestSourceCachedHitIsIdentical pins the memoization contract: the same
// (name, source, options) returns the identical *Result pointer, so every
// consumer shares one immutable IR.
func TestSourceCachedHitIsIdentical(t *testing.T) {
	a, err := compile.SourceCached("cache.mchpl", cacheSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := compile.SourceCached("cache.mchpl", cacheSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cache hit returned a different *Result: %p vs %p", a, b)
	}
}

// TestSourceCachedOptionsMiss: differing Options must not share results —
// --fast changes the IR.
func TestSourceCachedOptionsMiss(t *testing.T) {
	plain, err := compile.SourceCached("cache.mchpl", cacheSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := compile.SourceCached("cache.mchpl", cacheSrc, compile.Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain == fast {
		t.Fatal("Options{Fast} shared a cache entry with Options{}")
	}
	noChecks, err := compile.SourceCached("cache.mchpl", cacheSrc, compile.Options{NoChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	if noChecks == plain || noChecks == fast {
		t.Fatal("Options{NoChecks} shared a cache entry with a different option set")
	}
}

// TestSourceCachedSourceMiss: same name, different source bytes, must
// recompile (the key hashes the source, not just the name).
func TestSourceCachedSourceMiss(t *testing.T) {
	a, err := compile.SourceCached("cache.mchpl", cacheSrc, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := compile.SourceCached("cache.mchpl", cacheSrc+"\nwriteln(0);\n", compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different source shared a cache entry")
	}
}

// TestSourceCachedErrorsCached: a failing source keeps failing without
// recompiling, and does not poison other keys.
func TestSourceCachedErrorsCached(t *testing.T) {
	if _, err := compile.SourceCached("bad.mchpl", "var x = ;", compile.Options{}); err == nil {
		t.Fatal("expected a compile error")
	}
	if _, err := compile.SourceCached("bad.mchpl", "var x = ;", compile.Options{}); err == nil {
		t.Fatal("expected the cached compile error")
	}
	if _, err := compile.SourceCached("cache.mchpl", cacheSrc, compile.Options{}); err != nil {
		t.Fatalf("good source after bad one: %v", err)
	}
}

// TestSourceCachedConcurrentMixedOptions interleaves callers with
// different Options over the same source (run under -race in CI): every
// caller must get the pointer for its own option set, and no two option
// sets may ever alias one entry.
func TestSourceCachedConcurrentMixedOptions(t *testing.T) {
	optSets := []compile.Options{
		{},
		{Fast: true},
		{NoChecks: true},
		{Fast: true, NoChecks: true},
	}
	const rounds = 8
	results := make([][]*compile.Result, len(optSets))
	for i := range results {
		results[i] = make([]*compile.Result, rounds)
	}
	var wg sync.WaitGroup
	for i, opts := range optSets {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int, opts compile.Options) {
				defer wg.Done()
				res, err := compile.SourceCached("cache.mchpl", cacheSrc, opts)
				if err != nil {
					t.Error(err)
					return
				}
				results[i][r] = res
			}(i, r, opts)
		}
	}
	wg.Wait()
	for i := range optSets {
		for r := 1; r < rounds; r++ {
			if results[i][r] != results[i][0] {
				t.Fatalf("option set %d: round %d saw a different *Result", i, r)
			}
		}
		for j := 0; j < i; j++ {
			if results[i][0] == results[j][0] {
				t.Fatalf("option sets %d and %d aliased one cache entry", i, j)
			}
		}
	}
}
