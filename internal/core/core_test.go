package core_test

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/ir"
)

func analyze(t *testing.T, src string, opts core.Options) (*core.Analysis, *ir.Program) {
	t.Helper()
	res, err := compile.Source("t.mchpl", src, compile.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return core.Analyze(res.Prog, opts), res.Prog
}

func findVar(f *ir.Func, name string) *ir.Var {
	for _, v := range f.AllVars() {
		if v.Name == name && !v.IsTemp {
			return v
		}
	}
	return nil
}

func findGlobal(p *ir.Program, name string) *ir.Var {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

func hasLine(lines []int, l int) bool {
	for _, x := range lines {
		if x == l {
			return true
		}
	}
	return false
}

// TestFig1Example reproduces the paper's Fig. 1 / Table I worked example.
// Source lines here: a=2 is line 2, b=3 line 3, if line 4, a=b+1 line 5,
// c=a+b line 6 (paper lines 16..20).
func TestFig1Example(t *testing.T) {
	src := `proc main() {
  var a = 2;
  var b = 3;
  if a < b {
    a = b + 1;
  }
  var c = a + b;
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	f := p.FuncByName("main")

	av := findVar(f, "a")
	bv := findVar(f, "b")
	cv := findVar(f, "c")
	if av == nil || bv == nil || cv == nil {
		t.Fatalf("vars not found in:\n%s", f.Dump())
	}

	aLines := a.BlameSetLines(f, av)
	bLines := a.BlameSetLines(f, bv)
	cLines := a.BlameSetLines(f, cv)

	// Paper Table I (translated to our line numbers):
	//   a: {2, 4, 5}   (+3 under the published formula; see package doc)
	//   b: {3}
	//   c: {2, 3, 4, 5, 7}
	for _, l := range []int{2, 4, 5} {
		if !hasLine(aLines, l) {
			t.Errorf("a missing line %d: %v", l, aLines)
		}
	}
	if !hasLine(aLines, 3) {
		t.Errorf("published formula: a's slice of a=b+1 includes b's def (line 3): %v", aLines)
	}
	if len(bLines) != 1 || bLines[0] != 3 {
		t.Errorf("b lines = %v, want [3]", bLines)
	}
	for _, l := range []int{2, 3, 4, 5, 7} {
		if !hasLine(cLines, l) {
			t.Errorf("c missing line %d: %v", l, cLines)
		}
	}
	// c must NOT contain lines it doesn't depend on; there are none here.
	// b must not contain the branch (b doesn't depend on the condition).
	if hasLine(bLines, 4) {
		t.Errorf("b should not include the if line: %v", bLines)
	}
}

// TestImplicitTransferToggle: with implicit transfer off, the branch line
// disappears from a's set.
func TestImplicitTransferToggle(t *testing.T) {
	src := `proc main() {
  var a = 2;
  var b = 3;
  if a < b {
    a = b + 1;
  }
}
`
	opts := core.DefaultOptions()
	opts.ImplicitTransfer = false
	a, p := analyze(t, src, opts)
	f := p.FuncByName("main")
	av := findVar(f, "a")
	aLines := a.BlameSetLines(f, av)
	if hasLine(aLines, 4) {
		t.Errorf("implicit transfer disabled but a includes branch line: %v", aLines)
	}
}

// TestLoopIndexImplicitBlame: all variables written in a loop body
// inherit blame from the loop index (paper §IV.A).
func TestLoopIndexImplicitBlame(t *testing.T) {
	src := `proc main() {
  var s = 0.0;
  for i in 1..10 {
    s += 1.5;
  }
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	f := p.FuncByName("main")
	sv := findVar(f, "s")
	sLines := a.BlameSetLines(f, sv)
	// The loop header/increment lines (line 3) must be in s's blame.
	if !hasLine(sLines, 3) {
		t.Errorf("s should inherit the loop index lines: %v", sLines)
	}
}

func TestAliasBlame(t *testing.T) {
	// Writes through a slice alias blame the parent array (MiniMD's
	// RealPos → Pos).
	src := `
config const n = 8;
var D: domain(1) = {0..#n};
var inner: domain(1) = {1..6};
var Pos: [D] real;
ref RealPos = Pos[inner];
proc main() {
  RealPos[2] = 1.0;
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	f := p.FuncByName("main")
	pos := findGlobal(p, "Pos")
	rp := findGlobal(p, "RealPos")
	if a.AliasClass(pos) != a.AliasClass(rp) {
		t.Fatal("RealPos and Pos should share an alias class")
	}
	lines := a.BlameSetLines(f, pos)
	if !hasLine(lines, 8) {
		t.Errorf("write through RealPos must blame Pos: %v", lines)
	}
}

func TestExitVariables(t *testing.T) {
	src := `
proc accum(ref acc: real, x: real): real {
  acc += x;
  return acc * 2.0;
}
proc main() {
  var a = 0.0;
  var y = accum(a, 1.5);
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	f := p.FuncByName("accum")
	fa := a.Funcs[f]
	if fa == nil {
		t.Fatal("no analysis for accum")
	}
	names := map[string]bool{}
	for _, e := range fa.Exits {
		names[e.Name] = true
	}
	if !names["acc"] {
		t.Errorf("ref param acc should be an exit variable: %v", names)
	}
	if !names["__ret__"] {
		t.Errorf("return slot should be an exit variable: %v", names)
	}
}

func TestCallSiteBlamesCallerVar(t *testing.T) {
	// The call instruction is a def of its ref args, so the caller's
	// variable blame set includes the call line.
	src := `
proc bump(ref x: real) {
  x += 1.0;
}
proc main() {
  var v = 0.0;
  bump(v);
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	f := p.FuncByName("main")
	vv := findVar(f, "v")
	lines := a.BlameSetLines(f, vv)
	if !hasLine(lines, 7) {
		t.Errorf("v's blame must include the call at line 7: %v", lines)
	}
}

func TestAttributeSampleLevel0(t *testing.T) {
	src := `proc main() {
  var a = 2;
  var b = 3;
  var c = a + b;
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	f := p.FuncByName("main")
	// Find the instruction for line 4 (c = a + b).
	var target *ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Pos.Line == 4 && in.Op == ir.OpBin {
				target = in
			}
		}
	}
	if target == nil {
		t.Fatalf("no bin op at line 4\n%s", f.Dump())
	}
	blamed := a.AttributeSample(nil, []core.Frame{{Fn: f, Instr: target}})
	names := map[string]bool{}
	for _, b := range blamed {
		if b.Sym != nil && b.Path == "" {
			names[b.Sym.Name] = true
		}
	}
	if !names["c"] {
		t.Errorf("sample on c=a+b must blame c: %v", names)
	}
	if names["a"] || names["b"] {
		// The bin-op instruction is in c's slice only; a and b's sets
		// contain their own defs.
		t.Errorf("sample on c=a+b must not blame a or b directly: %v", names)
	}
}

func TestInterproceduralBubbling(t *testing.T) {
	src := `
proc work(ref result0: real) {
  var local1 = 0.0;
  local1 = 2.5;
  result0 = local1 * 2.0;
}
proc main() {
  var result = 0.0;
  work(result);
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	work := p.FuncByName("work")
	main := p.FuncByName("main")
	// Sample inside work at the write to local1 (line 4) — in local1's
	// blame set directly and in result0's via the backward slice of the
	// write at line 5.
	var target *ir.Instr
	for _, b := range work.Blocks {
		for _, in := range b.Instrs {
			if in.Pos.Line == 4 && in.Op == ir.OpMove {
				target = in
			}
		}
	}
	if target == nil {
		t.Fatalf("no target\n%s", work.Dump())
	}
	// Call site in main.
	var callsite *ir.Instr
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall && in.Callee == work {
				callsite = in
			}
		}
	}
	if callsite == nil {
		t.Fatal("no call site")
	}
	blamed := a.AttributeSample(nil, []core.Frame{
		{Fn: work, Instr: target},
		{Fn: main, Instr: callsite},
	})
	names := map[string]bool{}
	for _, b := range blamed {
		if b.Sym != nil {
			names[b.Sym.Name] = true
		}
	}
	if !names["result"] {
		t.Errorf("blame must bubble to result in main: %v", names)
	}
	if !names["local1"] {
		t.Errorf("local1 should be blamed at level 0: %v", names)
	}
}

func TestNoInterproceduralOption(t *testing.T) {
	src := `
proc work(ref result0: real) {
  result0 = 2.5;
}
proc main() {
  var result = 0.0;
  work(result);
}
`
	opts := core.DefaultOptions()
	opts.Interprocedural = false
	a, p := analyze(t, src, opts)
	work := p.FuncByName("work")
	main := p.FuncByName("main")
	var target, callsite *ir.Instr
	for _, b := range work.Blocks {
		for _, in := range b.Instrs {
			if in.Pos.Line == 3 {
				target = in
			}
		}
	}
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				callsite = in
			}
		}
	}
	blamed := a.AttributeSample(nil, []core.Frame{
		{Fn: work, Instr: target},
		{Fn: main, Instr: callsite},
	})
	for _, b := range blamed {
		if b.Sym != nil && b.Sym.Name == "result" {
			t.Error("interprocedural disabled but blame bubbled to result")
		}
	}
}

func TestGlobalBlamedDirectly(t *testing.T) {
	src := `
var G = 0.0;
proc work() {
  G = G + 1.0;
}
proc main() { work(); }
`
	a, p := analyze(t, src, core.DefaultOptions())
	work := p.FuncByName("work")
	var target *ir.Instr
	for _, b := range work.Blocks {
		for _, in := range b.Instrs {
			if in.Pos.Line == 4 && in.Op == ir.OpBin {
				target = in
			}
		}
	}
	blamed := a.AttributeSample(nil, []core.Frame{{Fn: work, Instr: target}})
	found := false
	for _, b := range blamed {
		if b.Sym != nil && b.Sym.Name == "G" {
			found = true
		}
	}
	if !found {
		t.Error("global G must be blamed directly without transfer")
	}
}

func TestPathBlame(t *testing.T) {
	src := `
config const nz = 4;
var zoneSpace: domain(1) = {0..#nz};
record Zone { var value: real; }
class Part {
  var zoneArray: [zoneSpace] Zone;
  var residue: real;
}
config const np = 2;
var partSpace: domain(1) = {0..#np};
var partArray: [partSpace] Part;
proc main() {
  partArray[0] = new Part();
  partArray[0].zoneArray[1].value = 3.5;
  partArray[0].residue = 0.25;
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	f := p.FuncByName("main")
	fa := a.Funcs[f]
	want := []string{
		"partArray[i].zoneArray[i].value",
		"partArray[i].residue",
	}
	for _, w := range want {
		if _, ok := fa.Paths[w]; !ok {
			keys := make([]string, 0, len(fa.Paths))
			for k := range fa.Paths {
				keys = append(keys, k)
			}
			t.Errorf("missing path %q; have %v", w, keys)
		}
	}
}

func TestTempsExcludedFromAttribution(t *testing.T) {
	src := `proc main() {
  var x = 1 + 2 * 3;
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	f := p.FuncByName("main")
	var target *ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpBin {
				target = in
			}
		}
	}
	blamed := a.AttributeSample(nil, []core.Frame{{Fn: f, Instr: target}})
	for _, bl := range blamed {
		if bl.Sym == nil {
			t.Errorf("blamed entity without symbol: %+v", bl)
		}
		if bl.Path == "" && bl.Sym.Name != "x" {
			t.Errorf("only x should be blamed, got %s", bl.Sym.Name)
		}
	}
}

func TestLineGranularityOption(t *testing.T) {
	// At line granularity two statements on one line share blame.
	src := `proc main() {
  var a = 0; var b = 0.0;
  a = 5; b = 2.5;
}
`
	opts := core.DefaultOptions()
	opts.LineGranularity = true
	a, p := analyze(t, src, opts)
	f := p.FuncByName("main")
	// Sample on the write to a (line 3) blames b too at line granularity.
	var target *ir.Instr
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Pos.Line == 3 && in.Op == ir.OpConst {
				target = in
				break
			}
		}
	}
	if target == nil {
		t.Fatalf("no const at line 3\n%s", f.Dump())
	}
	blamed := a.AttributeSample(nil, []core.Frame{{Fn: f, Instr: target}})
	names := map[string]bool{}
	for _, bl := range blamed {
		if bl.Sym != nil {
			names[bl.Sym.Name] = true
		}
	}
	if !names["a"] || !names["b"] {
		t.Errorf("line granularity should blame both a and b: %v", names)
	}
}

func TestSpawnTransfersToCaptures(t *testing.T) {
	src := `
config const n = 16;
var D: domain(1) = {0..#n};
proc main() {
  var A: [D] real;
  forall i in D {
    A[i] = i * 2.0;
  }
}
`
	a, p := analyze(t, src, core.DefaultOptions())
	main := p.FuncByName("main")
	var spawn *ir.Instr
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpSpawn {
				spawn = in
			}
		}
	}
	if spawn == nil {
		t.Fatal("no spawn")
	}
	body := spawn.Callee
	// Sample on the element store inside the body.
	var target *ir.Instr
	for _, b := range body.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpIndexStore {
				target = in
			}
		}
	}
	if target == nil {
		t.Fatalf("no store in body\n%s", body.Dump())
	}
	blamed := a.AttributeSample(nil, []core.Frame{
		{Fn: body, Instr: target},
		{Fn: main, Instr: spawn},
	})
	names := map[string]bool{}
	for _, bl := range blamed {
		if bl.Sym != nil {
			names[bl.Sym.Name] = true
		}
	}
	if !names["A"] {
		t.Errorf("worker sample must bubble to A in main: %v", names)
	}
	// The iteration domain D receives descriptor-write blame at the
	// spawn site (the MiniMD binSpace mechanism).
	blamedAtSpawn := a.AttributeSample(nil, []core.Frame{{Fn: main, Instr: spawn}})
	foundD := false
	for _, bl := range blamedAtSpawn {
		if bl.Sym != nil && bl.Sym.Name == "D" {
			foundD = true
		}
	}
	if !foundD {
		t.Errorf("iteration domain D should be blamed at the spawn site")
	}
}
