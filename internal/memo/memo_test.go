package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRUEviction: a store over its byte budget evicts from the cold
// end, touching an entry protects it, and the counters record it.
func TestLRUEviction(t *testing.T) {
	s := New(3000)
	for i := 0; i < 4; i++ {
		s.Put("out", fmt.Sprintf("k%d", i), i, 1000)
	}
	if _, ok := s.Get("out", "k0"); ok {
		t.Fatal("k0 (coldest) survived an over-budget insert")
	}
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, ok := s.Get("out", k); !ok {
			t.Fatalf("%s was evicted out of LRU order", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 3000 {
		t.Fatalf("stats = %+v, want 1 eviction, 3 entries, 3000 bytes", st)
	}

	// Touching k1 makes k2 the coldest; the next insert evicts k2, not k1.
	s.Get("out", "k1")
	s.Put("out", "k4", 4, 1000)
	if _, ok := s.Get("out", "k1"); !ok {
		t.Fatal("recently-used k1 was evicted")
	}
	if _, ok := s.Get("out", "k2"); ok {
		t.Fatal("cold k2 survived")
	}
}

// TestEvictionAcrossStages: one budget covers every stage, so a new entry
// in one stage evicts the coldest entry of another, and each stage's
// counters say which.
func TestEvictionAcrossStages(t *testing.T) {
	s := New(2000)
	s.Put("compile", "p", "ir", 1000)
	s.Put("analysis", "p", "an", 1000)
	s.Put("analysis", "q", "an", 1000)
	if _, ok := s.Get("compile", "p"); ok {
		t.Fatal("coldest entry (compile) survived")
	}
	st := s.StageStats()
	if c, a := st["compile"], st["analysis"]; c.Evictions != 1 || c.Bytes != 0 || a.Entries != 2 || a.Bytes != 2000 {
		t.Fatalf("compile %+v, analysis %+v", c, a)
	}
	if st["analysis"].MaxBytes != 2000 {
		t.Fatalf("stage MaxBytes = %d, want the store budget", st["analysis"].MaxBytes)
	}
	// Same key, different stage: distinct entries.
	if v, _ := s.Get("analysis", "p"); v != "an" {
		t.Fatalf("analysis/p = %v", v)
	}
}

// TestRejectsOversized: a value larger than the whole budget is returned
// by Do but not kept (it would evict everything for one entry).
func TestRejectsOversized(t *testing.T) {
	s := New(2048)
	s.Put("out", "big", "x", 1<<20)
	if _, ok := s.Get("out", "big"); ok {
		t.Fatal("oversized Put was stored")
	}
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := Do(s, "out", "huge", func() (int, error) { calls++; return 7, nil },
			func(int) int64 { return 1 << 20 })
		if v != 7 || err != nil {
			t.Fatalf("Do = %v, %v", v, err)
		}
	}
	if calls != 2 {
		t.Fatalf("oversized value computed %d times, want 2 (never kept)", calls)
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after rejected inserts: %+v", st)
	}
}

// TestCounters pins hit/miss accounting for Get and Do.
func TestCounters(t *testing.T) {
	s := New(1 << 20)
	s.Get("out", "absent")
	s.Put("out", "present", 1, 10)
	s.Get("out", "present")
	s.Get("out", "present")
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %f, want 2/3", got)
	}
	one := func() (int, error) { return 1, nil }
	size := func(int) int64 { return 8 }
	Do(s, "calc", 1, one, size)
	Do(s, "calc", 1, one, size)
	if c := s.StageStats()["calc"]; c.Hits != 1 || c.Misses != 1 || c.Entries != 1 || c.Bytes != 8 {
		t.Fatalf("calc stage = %+v", c)
	}
}

// TestPutRefreshes: re-putting a key updates size accounting instead of
// duplicating the entry.
func TestPutRefreshes(t *testing.T) {
	s := New(1 << 20)
	s.Put("out", "k", "a", 100)
	s.Put("out", "k", "b", 500)
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != 500 {
		t.Fatalf("stats = %+v, want 1 entry of 500 bytes", st)
	}
	if v, _ := s.Get("out", "k"); v != "b" {
		t.Fatalf("refreshed value = %v", v)
	}
}

// TestDoSingleflight: concurrent calls for one key compute once and all
// see the same value.
func TestDoSingleflight(t *testing.T) {
	s := New(1 << 20)
	var calls atomic.Int32
	const goroutines = 16
	results := make([]*int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], _ = Do(s, "calc", "k", func() (*int, error) {
				calls.Add(1)
				v := 42
				return &v, nil
			}, func(*int) int64 { return 8 })
		}(g)
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d saw a different value", g)
		}
	}
}

// TestDoErrorsCached: an error is memoized like a value, under its key
// only.
func TestDoErrorsCached(t *testing.T) {
	s := New(1 << 20)
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	size := func(int) int64 { return 8 }
	for i := 0; i < 2; i++ {
		if _, err := Do(s, "calc", "bad", fail, size); err != boom {
			t.Fatalf("err = %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failing computation ran %d times, want 1", calls)
	}
	if v, err := Do(s, "calc", "good", func() (int, error) { return 3, nil }, size); v != 3 || err != nil {
		t.Fatalf("good key after bad one: %v, %v", v, err)
	}
}

// TestDoPanicNotCached: a computation that panics leaves nothing behind;
// its caller sees the panic, a caller waiting on it retries, and the
// next call computes afresh.
func TestDoPanicNotCached(t *testing.T) {
	s := New(1 << 20)
	size := func(int) int64 { return 8 }
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan any)
	go func() {
		defer func() { leaderDone <- recover() }()
		Do(s, "calc", "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		}, size)
	}()
	<-started
	var waiterCalls atomic.Int32
	waiter := make(chan int)
	go func() {
		v, _ := Do(s, "calc", "k", func() (int, error) { waiterCalls.Add(1); return 5, nil }, size)
		waiter <- v
	}()
	// The waiter counts as a hit once it is waiting on the leader.
	for s.StageStats()["calc"].Hits == 0 {
		runtime.Gosched()
	}
	close(release)
	if p := <-leaderDone; p != "boom" {
		t.Fatalf("leader recovered %v, want the panic", p)
	}
	if v := <-waiter; v != 5 || waiterCalls.Load() != 1 {
		t.Fatalf("waiter got %d after %d computations, want 5 after 1", v, waiterCalls.Load())
	}
	if v, _ := Do(s, "calc", "k", func() (int, error) { return 9, nil }, size); v != 5 {
		t.Fatalf("after the retry, Do = %d, want the memoized 5", v)
	}
}

// TestConcurrent mixes Do, Get and Put over shared keys from many
// goroutines (run under -race): the budget holds throughout.
func TestConcurrent(t *testing.T) {
	s := New(4096)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i) % 32
				switch i % 3 {
				case 0:
					s.Put("out", k, i, 256)
				case 1:
					s.Get("out", k)
				default:
					Do(s, "calc", k, func() (int, error) { return k, nil }, func(int) int64 { return 128 })
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
}
