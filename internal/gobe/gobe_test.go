package gobe

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/gobert"
	"repro/internal/compile"
)

const scalarProg = `
config const n = 40;
var total: int;
var acc: real;
var flip: bool;
var A: [1..n] real;
for i in 1..n {
  A[i] = i * 1.5;
}
for i in 1..n {
  total = total + i * 2 - 1;
  acc = acc + A[i] / 2.0 + i ** 2;
  flip = !flip && (i < 20 || total > 100);
}
var msg = "done";
writeln(msg, " ", total, " ", acc, " ", flip);
`

const taskProg = `
config const n = 16;
var D: domain(1) = {1..n};
var A: [D] real;
forall i in D {
  A[i] = i * 0.25;
}
var sum: real;
for i in D {
  sum = sum + A[i];
}
writeln("sum=", sum);
`

func TestRunnerMatchesInterpreterScalar(t *testing.T) {
	alias, err := os.ReadFile(filepath.Join("..", "vm", "testdata", "alias.mchpl"))
	if err != nil {
		t.Fatal(err)
	}
	progs := []struct {
		name, src string
		locales   int
	}{
		{"scalar.mchpl", scalarProg, 1},
		{"task.mchpl", taskProg, 1},
		// Value aliasing cases, shared with internal/vm's TestValueAliasing.
		{"alias.mchpl", string(alias), 2},
	}
	for _, p := range progs {
		spec := &gobert.RunSpec{Mode: "run", Cores: 4, Locales: p.locales, MaxCycles: 1_000_000_000}
		interp, compiled, err := RunBoth(p.name, p.src, compile.Options{}, spec)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !compiled.Compiled {
			t.Fatalf("%s: compiled backend did not dispatch", p.name)
		}
		for _, d := range Diff(interp, compiled) {
			t.Errorf("%s: %s", p.name, d)
		}
		if interp.Output == "" {
			t.Fatalf("%s: empty program output", p.name)
		}
	}
}

func TestRunnerMatchesInterpreterExamples(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(root, "examples", "*", "*.mchpl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		for _, locales := range []int{1, 2} {
			spec := &gobert.RunSpec{Mode: "run", Cores: 4, Locales: locales, MaxCycles: 3_000_000_000}
			interp, compiled, err := RunBoth(name, string(b), compile.Options{}, spec)
			if err != nil {
				t.Fatalf("%s locales=%d: %v", name, locales, err)
			}
			for _, d := range Diff(interp, compiled) {
				t.Errorf("%s locales=%d: %s", name, locales, d)
			}
		}
	}
}

func TestFastOptionsProduceDistinctRunners(t *testing.T) {
	r1, err := Build("scalar.mchpl", scalarProg, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Build("scalar.mchpl", scalarProg, compile.Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bin == r2.Bin {
		t.Fatalf("distinct compile options share a cached runner: %s", r1.Bin)
	}
	spec := &gobert.RunSpec{Mode: "run", Cores: 4, MaxCycles: 1_000_000_000}
	interp, compiled, err := RunBoth("scalar.mchpl", scalarProg, compile.Options{Fast: true}, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Diff(interp, compiled) {
		t.Error(d)
	}
}

// TestDistinctNamesProduceDistinctRunners pins the cache-key fix for
// IR-identical programs built under different names: the binary embeds
// (name, source) verbatim and its outcome mode rejects any other
// program, so sharing a cached runner across names broke every second
// caller (`blame -bench halo` vs the harness's "halo.mchpl" build).
func TestDistinctNamesProduceDistinctRunners(t *testing.T) {
	r1, err := Build("scalar.mchpl", scalarProg, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Build("scalar", scalarProg, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bin == r2.Bin {
		t.Fatalf("distinct program names share a cached runner: %s", r1.Bin)
	}
	// Both runners must accept run specs for their own name and agree.
	var replies []*gobert.Reply
	for _, r := range []*Runner{r1, r2} {
		spec := &gobert.RunSpec{Mode: "run", Cores: 4, Locales: 1, MaxCycles: 1_000_000_000}
		reply, err := r.Exec(spec)
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if reply.Output == "" {
			t.Fatalf("%s: no program output", r.Name)
		}
		replies = append(replies, reply)
	}
	for _, d := range Diff(replies[0], replies[1]) {
		t.Error(d)
	}
}

// TestNoToolchainError is the regression test for the satellite fix:
// requesting the go backend without a toolchain must produce a clear
// wrapped ErrNoGoToolchain, not a panic (the CLIs turn it into a clean
// nonzero exit).
func TestNoToolchainError(t *testing.T) {
	t.Setenv("MCHPL_GOBE_CACHE", t.TempDir()) // defeat the binary cache
	t.Setenv("PATH", t.TempDir())             // no `go` here
	_, err := Build("toolchainless.mchpl", "writeln(1);\n", compile.Options{})
	if err == nil {
		t.Fatal("Build succeeded without a go toolchain")
	}
	if !errors.Is(err, ErrNoGoToolchain) {
		t.Fatalf("error does not wrap ErrNoGoToolchain: %v", err)
	}
	if !strings.Contains(err.Error(), "backend") {
		t.Fatalf("error message should mention the backend: %v", err)
	}
}
