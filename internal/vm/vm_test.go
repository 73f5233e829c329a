package vm_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/vm"
)

// run compiles and executes src, returning stdout and stats.
func run(t *testing.T, src string, cfgMut ...func(*vm.Config)) (string, vm.Stats) {
	t.Helper()
	res, err := compile.Source("t.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out strings.Builder
	cfg := vm.DefaultConfig()
	cfg.Stdout = &out
	cfg.MaxCycles = 500_000_000
	for _, f := range cfgMut {
		f(&cfg)
	}
	m := vm.New(res.Prog, cfg)
	stats, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v\noutput so far: %s", err, out.String())
	}
	return out.String(), stats
}

func runErr(t *testing.T, src string) error {
	t.Helper()
	res, err := compile.Source("t.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := vm.DefaultConfig()
	cfg.MaxCycles = 100_000_000
	m := vm.New(res.Prog, cfg)
	_, err = m.Run()
	if err == nil {
		t.Fatal("expected runtime error")
	}
	return err
}

func TestHelloArithmetic(t *testing.T) {
	out, _ := run(t, `
proc main() {
  var a = 2;
  var b = 3;
  var c = 0;
  if a < b {
    a = b + 1;
  }
  c = a + b;
  writeln("c = ", c);
}
`)
	if out != "c = 7\n" {
		t.Errorf("out = %q", out)
	}
}

func TestRealFormatting(t *testing.T) {
	out, _ := run(t, `
proc main() {
  writeln(1.5, " ", 2.0, " ", -0.25);
}
`)
	if out != "1.5 2.0 -0.25\n" {
		t.Errorf("out = %q", out)
	}
}

func TestIntegerDivisionAndMod(t *testing.T) {
	out, _ := run(t, `
proc main() {
  writeln(7 / 2, " ", 7 % 3, " ", 2 ** 10);
}
`)
	if out != "3 1 1024\n" {
		t.Errorf("out = %q", out)
	}
}

func TestSerialForLoop(t *testing.T) {
	out, _ := run(t, `
proc main() {
  var s = 0;
  for i in 1..10 { s += i; }
  writeln(s);
}
`)
	if out != "55\n" {
		t.Errorf("out = %q", out)
	}
}

func TestStridedAndCountedRanges(t *testing.T) {
	out, _ := run(t, `
proc main() {
  var s = 0;
  for i in 0..10 by 2 { s += i; }   // 0+2+4+6+8+10 = 30
  var c = 0;
  for i in 5..#4 { c += i; }        // 5+6+7+8 = 26
  writeln(s, " ", c);
}
`)
	if out != "30 26\n" {
		t.Errorf("out = %q", out)
	}
}

func TestWhileDoWhileBreakContinue(t *testing.T) {
	out, _ := run(t, `
proc main() {
  var i = 0;
  var n = 0;
  while true {
    i += 1;
    if i > 10 { break; }
    if i % 2 == 0 { continue; }
    n += i;   // 1+3+5+7+9 = 25
  }
  var j = 0;
  do { j += 1; } while j < 3;
  writeln(n, " ", j);
}
`)
	if out != "25 3\n" {
		t.Errorf("out = %q", out)
	}
}

func TestProcCallsAndRecursion(t *testing.T) {
	out, _ := run(t, `
proc fib(n: int): int {
  if n < 2 { return n; }
  return fib(n - 1) + fib(n - 2);
}
proc main() { writeln(fib(12)); }
`)
	if out != "144\n" {
		t.Errorf("out = %q", out)
	}
}

func TestRefParams(t *testing.T) {
	out, _ := run(t, `
proc bump(ref x: int, amt: int) { x += amt; }
proc main() {
  var v = 10;
  bump(v, 5);
  bump(v, 7);
  writeln(v);
}
`)
	if out != "22\n" {
		t.Errorf("out = %q", out)
	}
}

func TestArraysAndDomains(t *testing.T) {
	out, _ := run(t, `
config const n = 5;
var D: domain(1) = {0..#n};
var A: [D] int;
proc main() {
  for i in D { A[i] = i * i; }
  var s = 0;
  for i in D { s += A[i]; }
  writeln(s, " size=", D.size);
}
`)
	if out != "30 size=5\n" {
		t.Errorf("out = %q", out)
	}
}

func Test2DArrays(t *testing.T) {
	out, _ := run(t, `
config const n = 3;
var D2: domain(2) = {0..#n, 0..#n};
var G: [D2] int;
proc main() {
  for (i, j) in D2 { G[i, j] = i * 10 + j; }
  writeln(G[2, 1], " ", G[0, 2]);
}
`)
	if out != "21 2\n" {
		t.Errorf("out = %q", out)
	}
}

func TestArraySliceAliases(t *testing.T) {
	// Slices alias the parent (paper: "array slices alias the data in
	// arrays rather than copying it" — RealPos/RealCount in MiniMD).
	out, _ := run(t, `
config const n = 8;
var D: domain(1) = {0..#n};
var inner: domain(1) = {2..5};
var A: [D] int;
ref R = A[inner];
proc main() {
  A = 1;
  R[3] = 99;
  writeln(A[3], " ", A[2]);
  A[4] = 7;
  writeln(R[4]);
}
`)
	if out != "99 1\n7\n" {
		t.Errorf("out = %q", out)
	}
}

func TestWholeArrayOpsAndReduce(t *testing.T) {
	out, _ := run(t, `
config const n = 4;
var D: domain(1) = {0..#n};
var A: [D] real;
var B: [D] real;
proc main() {
  A = 2.0;
  B = A * 3.0 + 1.0;
  var s = + reduce B;     // 4 * 7 = 28
  var mx = max reduce B;
  writeln(s, " ", mx);
}
`)
	if out != "28.0 7.0\n" {
		t.Errorf("out = %q", out)
	}
}

func TestTuples(t *testing.T) {
	out, _ := run(t, `
type v3 = 3*real;
proc main() {
  var p: v3 = (1.0, 2.0, 3.0);
  var q: v3 = (0.5, 0.5, 0.5);
  var r = p + q;
  r(1) = r(1) * 10.0;
  writeln(r(1), " ", r(2), " ", r(3));
}
`)
	if out != "15.0 2.5 3.5\n" {
		t.Errorf("out = %q", out)
	}
}

func TestRecordsAndMethods(t *testing.T) {
	out, _ := run(t, `
record counter {
  var n: int;
  var total: real;
  proc add(x: real) {
    n += 1;
    total += x;
  }
}
var c: counter;
proc main() {
  c.add(1.5);
  c.add(2.5);
  writeln(c.n, " ", c.total);
}
`)
	if out != "2 4.0\n" {
		t.Errorf("out = %q", out)
	}
}

func TestRecordValueSemantics(t *testing.T) {
	out, _ := run(t, `
record point { var x: int; var y: int; }
proc main() {
  var a: point;
  a.x = 1;
  var b = a;   // copy
  b.x = 99;
  writeln(a.x, " ", b.x);
}
`)
	if out != "1 99\n" {
		t.Errorf("out = %q", out)
	}
}

func TestClassReferenceSemantics(t *testing.T) {
	out, _ := run(t, `
class Node { var v: int; }
proc main() {
  var a = new Node();
  var b = a;   // same instance
  b.v = 42;
  writeln(a.v);
  if a == b { writeln("same"); }
}
`)
	if out != "42\nsame\n" {
		t.Errorf("out = %q", out)
	}
}

func TestClassWithArrayField(t *testing.T) {
	// The CLOMP shape: class with an array field allocated over a global
	// domain at instance creation.
	out, _ := run(t, `
config const nz = 4;
var zoneSpace: domain(1) = {0..#nz};
record Zone { var value: real; }
class Part {
  var zoneArray: [zoneSpace] Zone;
  var residue: real;
}
proc main() {
  var p = new Part();
  p.zoneArray[2].value = 3.5;
  p.residue = 0.5;
  writeln(p.zoneArray[2].value, " ", p.zoneArray[1].value, " ", p.residue);
}
`)
	if out != "3.5 0.0 0.5\n" {
		t.Errorf("out = %q", out)
	}
}

func TestNestedArrays(t *testing.T) {
	out, _ := run(t, `
config const nb = 3;
var DistSpace: domain(1) = {0..#nb};
var perBinSpace: domain(1) = {0..#4};
type v3 = 3*real;
var Pos: [DistSpace] [perBinSpace] v3;
proc main() {
  Pos[1][2] = (1.0, 2.0, 3.0);
  var p = Pos[1][2];
  writeln(p(2));
  writeln(Pos[0][0](1));
}
`)
	if out != "2.0\n0.0\n" {
		t.Errorf("out = %q", out)
	}
}

func TestSelectWhen(t *testing.T) {
	out, _ := run(t, `
proc classify(x: int): int {
  var r = 0;
  select x {
    when 1 { r = 100; }
    when 2, 3 { r = 200; }
    otherwise { r = 300; }
  }
  return r;
}
proc main() {
  writeln(classify(1), " ", classify(3), " ", classify(9));
}
`)
	if out != "100 200 300\n" {
		t.Errorf("out = %q", out)
	}
}

func TestForallComputesCorrectly(t *testing.T) {
	out, _ := run(t, `
config const n = 100;
var D: domain(1) = {0..#n};
var A: [D] int;
proc main() {
  forall i in D { A[i] = i * 2; }
  var s = + reduce A;   // 2 * (99*100/2) = 9900
  writeln(s);
}
`)
	if out != "9900\n" {
		t.Errorf("out = %q", out)
	}
}

func TestForallSpawnsTasks(t *testing.T) {
	_, stats := run(t, `
config const n = 100;
var D: domain(1) = {0..#n};
var A: [D] int;
proc main() {
  forall i in D { A[i] = i; }
}
`)
	if stats.TasksSpawned != 12 {
		t.Errorf("tasks spawned = %d, want 12 (cores)", stats.TasksSpawned)
	}
}

func TestCoforallOneTaskPerIndex(t *testing.T) {
	_, stats := run(t, `
config const nt = 7;
var done: [0..#nt] int;
proc main() {
  coforall tid in 0..#nt { done[tid] = 1; }
}
`)
	if stats.TasksSpawned != 7 {
		t.Errorf("tasks = %d, want 7", stats.TasksSpawned)
	}
}

func TestZipIteration(t *testing.T) {
	out, _ := run(t, `
config const n = 6;
var D: domain(1) = {0..#n};
var A: [D] int;
var B: [D] int;
proc main() {
  for i in D { B[i] = i; }
  forall (a, b) in zip(A, B) { a = b * 10; }
  writeln(A[5], " ", A[0]);
  // zip with a range
  for (x, i) in zip(A, 0..#n) { x = i; }
  writeln(A[3]);
}
`)
	if out != "50 0\n3\n" {
		t.Errorf("out = %q", out)
	}
}

func TestParamForUnrolledExecution(t *testing.T) {
	out, _ := run(t, `
proc main() {
  var s = 0;
  for param i in 1..4 { s += i * i; }   // 1+4+9+16
  writeln(s);
}
`)
	if out != "30\n" {
		t.Errorf("out = %q", out)
	}
}

func TestBeginSync(t *testing.T) {
	out, _ := run(t, `
var total = 0;
proc main() {
  sync {
    begin { total += 1; }
    begin { total += 2; }
  }
  writeln(total);
}
`)
	if out != "3\n" {
		t.Errorf("out = %q", out)
	}
}

func TestCobegin(t *testing.T) {
	out, _ := run(t, `
var a = 0;
var b = 0;
proc main() {
  cobegin {
    a = 1;
    b = 2;
  }
  writeln(a + b);
}
`)
	if out != "3\n" {
		t.Errorf("out = %q", out)
	}
}

func TestConfigConstOverride(t *testing.T) {
	src := `
config const n = 4;
proc main() { writeln(n * 2); }
`
	out, _ := run(t, src)
	if out != "8\n" {
		t.Errorf("default: %q", out)
	}
	out2, _ := run(t, src, func(c *vm.Config) {
		c.Configs = map[string]string{"n": "21"}
	})
	if out2 != "42\n" {
		t.Errorf("override: %q", out2)
	}
}

func TestBuiltins(t *testing.T) {
	out, _ := run(t, `
proc main() {
  writeln(sqrt(16.0), " ", abs(-3), " ", max(2, 7, 5), " ", min(2.0, 0.5));
}
`)
	if out != "4.0 3 7 0.5\n" {
		t.Errorf("out = %q", out)
	}
}

func TestNestedProcWithCaptures(t *testing.T) {
	out, _ := run(t, `
proc outer(): real {
  var acc = 0.0;
  proc add(x: real) { acc += x; }
  add(1.5);
  add(2.5);
  return acc;
}
proc main() { writeln(outer()); }
`)
	if out != "4.0\n" {
		t.Errorf("out = %q", out)
	}
}

func TestDomainMethods(t *testing.T) {
	out, _ := run(t, `
config const n = 4;
var binSpace: domain(1) = {0..#n};
var DistSpace: domain(1) = binSpace.expand(1);
proc main() {
  writeln(binSpace.size, " ", DistSpace.size, " ", DistSpace.low, " ", DistSpace.high);
}
`)
	if out != "4 6 -1 4\n" {
		t.Errorf("out = %q", out)
	}
}

func TestSwapStatement(t *testing.T) {
	out, _ := run(t, `
proc main() {
  var a = 1;
  var b = 2;
  a <=> b;
  writeln(a, " ", b);
}
`)
	if out != "2 1\n" {
		t.Errorf("out = %q", out)
	}
}

func TestGetCurrentTimeAdvances(t *testing.T) {
	out, _ := run(t, `
proc main() {
  var t0 = getCurrentTime();
  var s = 0;
  for i in 1..10000 { s += i; }
  var t1 = getCurrentTime();
  if t1 > t0 { writeln("time advanced"); }
  writeln(s);
}
`)
	if !strings.HasPrefix(out, "time advanced\n") {
		t.Errorf("out = %q", out)
	}
}

func TestOutOfBoundsCaught(t *testing.T) {
	err := runErr(t, `
config const n = 4;
var D: domain(1) = {0..#n};
var A: [D] int;
proc main() { A[9] = 1; }
`)
	if !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("err = %v", err)
	}
}

func TestNilDerefCaught(t *testing.T) {
	err := runErr(t, `
class Node { var v: int; }
var head: Node;
proc main() { head.v = 1; }
`)
	if !strings.Contains(err.Error(), "nil") {
		t.Errorf("err = %v", err)
	}
}

func TestDivideByZeroCaught(t *testing.T) {
	err := runErr(t, `
proc main() {
  var z = 0;
  var x = 10 / z;
}
`)
	if !strings.Contains(err.Error(), "invalid operands") {
		t.Errorf("err = %v", err)
	}
}

func TestAssertFailure(t *testing.T) {
	err := runErr(t, `proc main() { assert(1 == 2); }`)
	if !strings.Contains(err.Error(), "assertion") {
		t.Errorf("err = %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	_, stats := run(t, `
config const n = 50;
var D: domain(1) = {0..#n};
var A: [D] real;
proc main() {
  forall i in D { A[i] = i * 1.0; }
}
`)
	if stats.TotalCycles == 0 || stats.WallCycles == 0 {
		t.Error("no cycles accounted")
	}
	if stats.WallCycles > stats.TotalCycles {
		t.Error("wall cycles exceed total cycles")
	}
	if stats.Allocations == 0 {
		t.Error("array allocation not recorded")
	}
	if stats.Instructions == 0 {
		t.Error("instructions not counted")
	}
}

func TestParallelismReducesWallTime(t *testing.T) {
	src := `
config const n = 2000;
var D: domain(1) = {0..#n};
var A: [D] real;
proc main() {
  forall i in D {
    var acc = 0.0;
    for k in 1..20 { acc += k * 0.5; }
    A[i] = acc;
  }
}
`
	_, seq := run(t, src, func(c *vm.Config) { c.NumCores = 1 })
	_, par := run(t, src, func(c *vm.Config) { c.NumCores = 12 })
	speedup := float64(seq.WallCycles) / float64(par.WallCycles)
	if speedup < 4 {
		t.Errorf("12-core speedup = %.2f, want >= 4", speedup)
	}
}

func TestFastBuildIsFaster(t *testing.T) {
	src := `
config const n = 300;
var D: domain(1) = {0..#n};
var A: [D] real;
proc main() {
  for i in D {
    A[i] = sqrt(i * 1.0) + 2.0 * 3.0;
  }
}
`
	slow, err := compile.Source("t", src, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := compile.Source("t", src, compile.Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	s1, err := vm.New(slow.Prog, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := vm.New(fast.Prog, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	if s2.WallCycles >= s1.WallCycles {
		t.Errorf("--fast not faster: %d vs %d", s2.WallCycles, s1.WallCycles)
	}
}

func TestSpinAccountedDuringSerialSections(t *testing.T) {
	// A serial section between foralls leaves 11 cores spinning.
	_, stats := run(t, `
config const n = 600;
var D: domain(1) = {0..#n};
var A: [D] real;
proc main() {
  forall i in D { A[i] = i * 1.0; }
  var s = 0.0;
  for i in D { s += A[i]; }   // serial
  forall i in D { A[i] = s - A[i]; }
}
`)
	if stats.SpinCycles == 0 {
		t.Error("no spin cycles recorded for serial sections")
	}
}

func TestMultiLocaleOnStatement(t *testing.T) {
	out, stats := run(t, `
var hits: [0..#4] int;
proc main() {
  for l in 0..#4 {
    on Locales[l] {
      hits[l] = here.id + 1;
    }
  }
  writeln(hits[0], " ", hits[1], " ", hits[2], " ", hits[3]);
}
`, func(c *vm.Config) { c.NumLocales = 4 })
	if out != "1 2 3 4\n" {
		t.Errorf("out = %q", out)
	}
	if stats.CommMessages == 0 {
		t.Error("remote writes should generate comm traffic")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// sync with a begin that blocks forever is hard to express; instead
	// verify MaxCycles guards runaway loops.
	res, err := compile.Source("t", `proc main() { while true { } }`, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.MaxCycles = 100000
	_, err = vm.New(res.Prog, cfg).Run()
	if err == nil || !strings.Contains(err.Error(), "cycle budget") {
		t.Errorf("err = %v", err)
	}
}

func TestModuleLevelStatements(t *testing.T) {
	out, _ := run(t, `
var x = 1;
x = x + 41;
proc main() { writeln(x); }
`)
	if out != "42\n" {
		t.Errorf("out = %q", out)
	}
}

func TestDeterministicCycles(t *testing.T) {
	src := `
config const n = 200;
var D: domain(1) = {0..#n};
var A: [D] real;
proc main() {
  forall i in D { A[i] = sqrt(i * 1.0); }
  var s = + reduce A;
  writeln(s > 0.0);
}
`
	_, s1 := run(t, src)
	_, s2 := run(t, src)
	if s1.TotalCycles != s2.TotalCycles || s1.WallCycles != s2.WallCycles {
		t.Errorf("nondeterministic: %+v vs %+v", s1, s2)
	}
}

// BenchmarkRunLULESH times one LULESH run with no listener attached: the
// shape of blame's calibration run.
func BenchmarkRunLULESH(b *testing.B) {
	res, err := benchprog.LULESH(benchprog.LuleshOriginal).Compile(compile.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.MaxCycles = 10_000_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vm.New(res.Prog, cfg).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestValueAliasing runs testdata/alias.mchpl: copies share immutable
// domain and range boxes, so every change must build a new one; tuples
// and records still copy deeply; a ref to an array cell sees later
// stores. internal/gobe runs the same program on both backends.
func TestValueAliasing(t *testing.T) {
	src, err := os.ReadFile("testdata/alias.mchpl")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := run(t, string(src), func(c *vm.Config) { c.NumLocales = 2; c.NumCores = 2 })
	want := `dist 0 1 {0..7} {0..7}
dom {0..7} {-2..9} {1..10} 10 8
range 0..5 65
copy (1, 2, 3) (9, 2, 3) ((1, 2), (3, 4)) ((1, 7), (3, 4)) 1.0 2.0 0.0 5.0
ref 5.0 6.0 0.0 0.0 6.0 0.0
`
	if out != want {
		t.Errorf("out =\n%s\nwant\n%s", out, want)
	}
}
