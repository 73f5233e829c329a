package serve

import (
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/memo"
)

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMemoryBoundedUnderDistinctSources: a daemon fed many distinct
// sources keeps every memo stage and the outcome cache within their
// budgets by evicting, instead of pinning each source's IR and analysis
// for the life of the process (2.3 MB per LULESH source).
func TestMemoryBoundedUnderDistinctSources(t *testing.T) {
	const sharedBudget, cacheBudget = 4 << 20, 64 << 10
	defer func(shared *memo.Store) { memo.Shared = shared }(memo.Shared)
	memo.Shared = memo.New(sharedBudget)
	srv := New(Options{Workers: 2, CacheBytes: cacheBudget})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	src, name, err := ResolveBench("lulesh")
	if err != nil {
		t.Fatal(err)
	}

	base := liveHeap()
	for i := 0; i < 40; i++ {
		req := Request{Name: name, Source: src + "// salt " + strconv.Itoa(i) + "\n", View: "lint-json"}
		res := decode[resultResponse](t, postJSON(t, ts.URL+"/v1/submit?wait=1", req))
		if res.State != StateDone || res.Cached {
			t.Fatalf("source %d: state=%s cached=%v err=%q", i, res.State, res.Cached, res.Error)
		}
	}
	grown := liveHeap() - base

	var evictions uint64
	for stage, st := range memo.Shared.StageStats() {
		if st.Bytes > sharedBudget {
			t.Errorf("stage %s holds %d bytes, over its %d budget", stage, st.Bytes, sharedBudget)
		}
		evictions += st.Evictions
	}
	if evictions == 0 {
		t.Error("40 distinct LULESH sources caused no memo evictions")
	}
	if st := srv.outcomes.Stats(); st.Bytes > cacheBudget || st.Evictions == 0 {
		t.Errorf("outcome cache: %d bytes of %d, %d evictions", st.Bytes, cacheBudget, st.Evictions)
	}
	if limit := int64(4 * (sharedBudget + cacheBudget)); grown > limit {
		t.Errorf("live heap grew %d bytes over 40 sources, limit %d", grown, limit)
	}
}
