package vm

import (
	"testing"
	"unsafe"

	"repro/internal/compile"
)

// TestValueSize pins the three-word Value: every register, slot and
// array element is one, so its size is the interpreter's copy and
// GC-scan cost.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 32 {
		t.Fatalf("Value is %d bytes, want <= 32", n)
	}
}

// scalarKernel exercises every scalar path: int and real arithmetic,
// compares, bool logic, moves, and real array element loads and stores.
const scalarKernel = `
proc main() {
  var A: [0..#64] real;
  var s = 0.0;
  var k = 0;
  var ok = true;
  for i in 1..1000000000 {
    k = k + i % 7;
    s = s + k * 0.5 - A[i % 64];
    A[(i + 1) % 64] = s / 3.0;
    ok = (ok && s >= 0.0) || k > 3;
    if s > 1000000.0 { s = -s; }
  }
  writeln(s, k, ok);
}
`

// TestScalarStepsDoNotAllocate steps the interpreter through a scalar
// kernel loop and requires zero heap allocations per instruction.
func TestScalarStepsDoNotAllocate(t *testing.T) {
	res, err := compile.Source("kernel.mchpl", scalarKernel, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(res.Prog, DefaultConfig())
	task := &Task{}
	m.pushFrame(task, res.Prog.Main, nil, nil)
	steps := func(n int) {
		for i := 0; i < n; i++ {
			if !m.step(task) {
				t.Fatalf("kernel stopped: %v", m.err)
			}
		}
	}
	steps(1000) // frame set up, array allocated, loop entered
	if allocs := testing.AllocsPerRun(5, func() { steps(10000) }); allocs != 0 {
		t.Errorf("%.0f allocations per 10000 scalar steps, want 0", allocs)
	}
}
