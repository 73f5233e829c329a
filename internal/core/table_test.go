package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/compile"
	"repro/internal/ir"
)

// scan is the reference the attribution table is checked against: for
// one instruction it probes every variable, path and exit of the function
// directly. lines memoizes each blame set's source lines.
type scan struct {
	a     *Analysis
	fa    *FuncAnalysis
	lines map[*bitset]map[int32]bool
}

// covers reports whether set blames in, at the analysis' granularity.
func (sc *scan) covers(set *bitset, in *ir.Instr) bool {
	if set == nil {
		return false
	}
	if !sc.a.Opts.LineGranularity {
		return set.has(sc.fa.index[in])
	}
	lines, ok := sc.lines[set]
	if !ok {
		lines = make(map[int32]bool)
		set.each(func(i int) {
			if p := sc.fa.instrs[i].Pos; p.IsValid() {
				lines[p.Line] = true
			}
		})
		sc.lines[set] = lines
	}
	return in.Pos.IsValid() && lines[in.Pos.Line]
}

func (sc *scan) blamedAt(in *ir.Instr) []*ir.Var {
	var out []*ir.Var
	for _, v := range sc.fa.vars {
		if sc.covers(sc.fa.blame[sc.a.find(v)], in) {
			out = append(out, v)
		}
	}
	for rep, set := range sc.fa.blame {
		if sc.covers(set, in) {
			out = append(out, sc.a.globalMembers[rep]...)
		}
	}
	return out
}

func (sc *scan) pathsAt(in *ir.Instr) []*PathBlame {
	var out []*PathBlame
	for _, pb := range sc.fa.Paths {
		if sc.covers(pb.set, in) {
			out = append(out, pb)
		}
	}
	return out
}

func (sc *scan) exitBlamed(in *ir.Instr) bool {
	for _, e := range sc.fa.Exits {
		if sc.covers(sc.fa.blame[sc.a.find(e)], in) {
			return true
		}
	}
	return false
}

// tablePrograms is every benchprog program: the case studies in both
// forms, the comm kernels and the Fig. 1 example.
func tablePrograms() []benchprog.Program {
	return append(benchprog.All(), benchprog.Halo())
}

func compileProgram(t *testing.T, p benchprog.Program) *ir.Program {
	t.Helper()
	res, err := p.Compile(compile.Options{})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return res.Prog
}

// TestAttribTableMatchesScan checks the inverted table against the
// per-variable scan, instruction by instruction, for every program under
// every combination of the analysis options.
func TestAttribTableMatchesScan(t *testing.T) {
	for _, p := range tablePrograms() {
		prog := compileProgram(t, p)
		for bits := 0; bits < 16; bits++ {
			opts := Options{
				ImplicitTransfer: bits&1 != 0,
				Interprocedural:  bits&2 != 0,
				LineGranularity:  bits&4 != 0,
				TrackPaths:       bits&8 != 0,
			}
			t.Run(fmt.Sprintf("%s/%+v", p.Name, opts), func(t *testing.T) {
				a := Analyze(prog, opts)
				for f, fa := range a.Funcs {
					tab := fa.table(a)
					sc := &scan{a: a, fa: fa, lines: make(map[*bitset]map[int32]bool)}
					for i, in := range fa.instrs {
						checkVars(t, f.Name, i, tab.vars.at(i), sc.blamedAt(in))
						checkPaths(t, f.Name, i, tab.paths.at(i), sc.pathsAt(in))
						if got, want := tab.exit[i], sc.exitBlamed(in); got != want {
							t.Fatalf("%s instr %d: exit blamed %v, scan says %v", f.Name, i, got, want)
						}
					}
				}
			})
		}
	}
}

// checkVars compares a table row with the scan's displayable variables as
// sets; the row must list each variable once.
func checkVars(t *testing.T, fn string, i int, got, scan []*ir.Var) {
	t.Helper()
	want := make(map[*ir.Var]bool)
	for _, v := range scan {
		if displayable(v) {
			want[v] = true
		}
	}
	seen := make(map[*ir.Var]bool)
	for _, v := range got {
		if seen[v] || !want[v] {
			t.Fatalf("%s instr %d: table lists %s (duplicate %v), scan blames %v", fn, i, v.Name, seen[v], scan)
		}
		seen[v] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("%s instr %d: table lists %v, scan blames %v", fn, i, got, scan)
	}
}

func checkPaths(t *testing.T, fn string, i int, got, scan []*PathBlame) {
	t.Helper()
	want := make(map[*PathBlame]bool)
	for _, pb := range scan {
		want[pb] = true
	}
	seen := make(map[*PathBlame]bool)
	for _, pb := range got {
		if seen[pb] || !want[pb] {
			t.Fatalf("%s instr %d: table lists path %s (duplicate %v)", fn, i, pb.Path, seen[pb])
		}
		seen[pb] = true
	}
	if len(seen) != len(want) {
		t.Fatalf("%s instr %d: table lists %d paths, scan %d", fn, i, len(got), len(want))
	}
}

// samplePaths builds, for every instruction of every analysed function, a
// call path that climbs through each function's first call site (up to
// three callers), so attribution also bubbles through exits.
func samplePaths(a *Analysis) [][]Frame {
	callSite := make(map[*ir.Func]Frame)
	for _, f := range a.Prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if (in.Op == ir.OpCall || in.Op == ir.OpSpawn) && in.Callee != nil {
					if _, ok := callSite[in.Callee]; !ok && in.Callee != f {
						callSite[in.Callee] = Frame{Fn: f, Instr: in}
					}
				}
			}
		}
	}
	var out [][]Frame
	for _, f := range a.Prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				path := []Frame{{Fn: f, Instr: in}}
				for fn := f; len(path) < 4; {
					fr, ok := callSite[fn]
					if !ok {
						break
					}
					path = append(path, fr)
					fn = fr.Fn
				}
				out = append(out, path)
			}
		}
	}
	return out
}

func attributeAll(a *Analysis, paths [][]Frame) [][]Blamed {
	out := make([][]Blamed, len(paths))
	for i, p := range paths {
		out[i] = a.AttributeSample(nil, p)
	}
	return out
}

func sameAttribution(t *testing.T, what string, paths [][]Frame, got, want [][]Blamed) {
	t.Helper()
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Errorf("%s: %s sample %d: %d blamed, want %d", what, paths[i][0].Fn.Name, i, len(got[i]), len(want[i]))
			return
		}
		for j, b := range want[i] {
			g := got[i][j]
			if g.Sym != b.Sym || g.Var != b.Var || g.Path != b.Path {
				t.Errorf("%s: %s sample %d entry %d: got (%v %v %q), want (%v %v %q)",
					what, paths[i][0].Fn.Name, i, j, g.Sym, g.Var, g.Path, b.Sym, b.Var, b.Path)
				return
			}
		}
	}
}

// TestAttributeSampleDeterministic pins the order of AttributeSample's
// result, and which variable wins a symbol: two independent analyses of
// one program must attribute every sample identically.
func TestAttributeSampleDeterministic(t *testing.T) {
	for _, p := range []benchprog.Program{benchprog.LULESH(benchprog.LuleshOriginal), benchprog.MiniMD(false)} {
		prog := compileProgram(t, p)
		a1, a2 := Analyze(prog, DefaultOptions()), Analyze(prog, DefaultOptions())
		paths := samplePaths(a1)
		sameAttribution(t, p.Name, paths, attributeAll(a2, paths), attributeAll(a1, paths))
	}
}

// TestAttributeSampleAppends pins the dst contract: a reused buffer
// yields the same attribution as a fresh one, and entries already in
// dst are kept and never deduplicate against the new sample.
func TestAttributeSampleAppends(t *testing.T) {
	prog := compileProgram(t, benchprog.LULESH(benchprog.LuleshOriginal))
	a := Analyze(prog, DefaultOptions())
	paths := samplePaths(a)
	want := attributeAll(a, paths)
	var buf []Blamed
	got := make([][]Blamed, len(paths))
	for i, p := range paths {
		buf = a.AttributeSample(buf[:0], p)
		got[i] = append([]Blamed(nil), buf...)
	}
	sameAttribution(t, "reused buffer", paths, got, want)
	for i, p := range paths {
		if len(want[i]) == 0 {
			continue
		}
		out := a.AttributeSample(append([]Blamed(nil), want[i]...), p)
		sameAttribution(t, "prefixed", [][]Frame{p, p}, [][]Blamed{out[:len(want[i])], out[len(want[i]):]}, [][]Blamed{want[i], want[i]})
		break
	}
}

// TestAttributeSampleConcurrent attributes from 8 goroutines at once on a
// fresh shared Analysis, so the lazy table builds race with each other
// and with readers.
func TestAttributeSampleConcurrent(t *testing.T) {
	prog := compileProgram(t, benchprog.LULESH(benchprog.LuleshOriginal))
	paths := samplePaths(Analyze(prog, DefaultOptions()))
	want := attributeAll(Analyze(prog, DefaultOptions()), paths)
	shared := Analyze(prog, DefaultOptions())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine starts at a different sample so first uses
			// of a function overlap.
			rot := make([][]Frame, len(paths))
			for i := range paths {
				rot[i] = paths[(i+g*len(paths)/8)%len(paths)]
			}
			got := attributeAll(shared, rot)
			wantRot := make([][]Blamed, len(paths))
			for i := range paths {
				wantRot[i] = want[(i+g*len(paths)/8)%len(paths)]
			}
			sameAttribution(t, fmt.Sprintf("goroutine %d", g), rot, got, wantRot)
		}(g)
	}
	wg.Wait()
}
