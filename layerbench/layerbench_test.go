package main

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/serve"
)

// TestMain lets the test binary act as the layerbench command when a
// workload starts it as a child process.
func TestMain(m *testing.M) {
	if os.Getenv("LAYERBENCH_CHILD") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func list(seed int64) []item {
	return cycles(newSalter(rand.New(rand.NewSource(seed))), 3, 20)
}

func TestSameSeedSameList(t *testing.T) {
	if a, b := list(7), list(7); !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 gave two different request lists")
	}
}

func TestOtherSeedReordersAndResalts(t *testing.T) {
	a, b := list(7), list(8)
	count := func(l []item) map[int]int {
		m := map[int]int{}
		for _, it := range l {
			m[it.Prog]++
		}
		return m
	}
	if !reflect.DeepEqual(count(a), count(b)) {
		t.Fatalf("program multisets differ: %v vs %v", count(a), count(b))
	}
	if want := map[int]int{0: 20, 1: 20, 2: 20}; !reflect.DeepEqual(count(a), want) {
		t.Fatalf("cycles are not equal-weight: %v", count(a))
	}
	sameOrder := true
	salts := map[string]bool{}
	for i := range a {
		sameOrder = sameOrder && a[i].Prog == b[i].Prog
		salts[a[i].Salt] = true
	}
	if sameOrder {
		t.Error("seeds 7 and 8 gave the same program order")
	}
	for _, it := range b {
		if salts[it.Salt] {
			t.Errorf("salt %s drawn under both seeds", it.Salt)
		}
	}
	if len(salts) != len(a) {
		t.Errorf("%d distinct salts in %d requests", len(salts), len(a))
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i)
		}
		return s
	}
	if v, err := percentile(xs(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs(99), 0.9); err == nil {
		t.Error("p90 of 99 samples (9 beyond) was not refused")
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Error("p50 of 19 samples (9 beyond) was not refused")
	}
	if v, err := percentile(xs(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

func TestCorruptReferenceCountsFailures(t *testing.T) {
	b, err := workloads["static-cold"].setup(runArgs{workload: "static-cold", seed: 1, cycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	cb := b.(*coldBench)
	e := cb.ref["minimd|static+lint"]
	e.Text = digest("not the outcome")
	cb.ref["minimd|static+lint"] = e
	res, err := cb.run()
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if res.attempted != 6 || res.failed != 2 {
		t.Errorf("attempted %d, failed %d; want 6 and 2", res.attempted, res.failed)
	}
}

func TestServeViewsFourExecutionsOneHitPerSession(t *testing.T) {
	workDir = t.TempDir()
	b, err := serveSetup(runArgs{workload: "serve-views", seed: 1, cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb := b.(*serveBench)
	defer sb.close()
	p, err := sb.measure(sb.srv, sb.calls, nil)
	if err != nil {
		t.Fatal(err)
	}
	sessions := uint64(len(servePrograms))
	if p.t.failed != 0 {
		t.Errorf("%d failed requests", p.t.failed)
	}
	if p.executed != 4*sessions || p.hits != sessions || p.misses != 4*sessions {
		t.Errorf("executed %d, hits %d, misses %d; want %d, %d, %d",
			p.executed, p.hits, p.misses, 4*sessions, sessions, 4*sessions)
	}
}

func TestReplayMatchesExecute(t *testing.T) {
	cases := []struct {
		p    program
		view string
		lint bool
	}{
		{casePrograms[0], "data", false},
		{casePrograms[0], "static", true},
		{servePrograms[0], "comm", false},
		{servePrograms[1], "hybrid", false},
	}
	for _, c := range cases {
		r, err := c.p.resolve()
		if err != nil {
			t.Fatal(err)
		}
		req, err := r.request("replay-test", c.view, c.lint)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serve.Execute(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder()
		got, err := replay(req, nil, rec, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if outcomeDigest(want) != outcomeDigest(got) {
			t.Errorf("%s %s: the replay's outcome differs from serve.Execute's", c.p.key, c.view)
		}
	}
}

func TestTracedRunsMatchExecute(t *testing.T) {
	workDir = t.TempDir()
	for _, name := range []string{"static-cold", "serve-views"} {
		b, err := workloads[name].setup(runArgs{workload: name, seed: 1, cycles: 2, traced: true})
		if err != nil {
			t.Fatal(err)
		}
		m, res, err := b.traced(NewRecorder())
		b.close()
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d traced requests differ from serve.Execute or the reference", name, res.failed, res.attempted)
		}
		if m["trace.coverage"] < 0.9 {
			t.Errorf("%s: trace.coverage %.3f < 0.9", name, m["trace.coverage"])
		}
		if name == "serve-views" && m["serve.exec_per_req"] != 0.8 {
			t.Errorf("serve-views: serve.exec_per_req %v, want 0.8", m["serve.exec_per_req"])
		}
	}
}
