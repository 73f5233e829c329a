package core

import (
	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/types"
)

// Frame is one level of a resolved, glued call path: the function and the
// instruction within it (the sampled instruction at level 0, the call or
// spawn site at outer levels).
type Frame struct {
	Fn    *ir.Func
	Instr *ir.Instr
}

// Blamed is one entity a sample is attributed to: a source variable or a
// field/element access path rooted at one.
type Blamed struct {
	// Sym is the variable's semantic symbol (variable rows).
	Sym *sem.Symbol
	// Var is the IR variable blamed.
	Var *ir.Var
	// Path is the access path for field rows
	// ("partArray[i].zoneArray[j].value"); empty for plain variables.
	Path string
	// Root is the path's root variable.
	Root *ir.Var
}

// aggregateArg limits caller-side call transfer to memory aggregates
// (the tuple/record/array inputs whose production the callee's work
// represents); scalar config values are not blame carriers.
func aggregateArg(v *ir.Var) bool {
	if v == nil || v.Type == nil {
		return false
	}
	switch v.Type.Kind() {
	case types.Tuple, types.Record, types.Array, types.Class:
		return true
	}
	return false
}

// displayable reports whether v appears in user-facing views: named
// source variables that are not compiler temps and not ref formals
// (ref-formal blame bubbles to the caller's variable instead; §IV.C).
func displayable(v *ir.Var) bool {
	if v.Sym == nil || v.IsTemp {
		return false
	}
	if v.IsParam && v.IsRef {
		return false
	}
	return true
}

// AttributeSample maps one sample (as a resolved call path, innermost
// first) to the set of blamed variables and access paths — the paper's
// step 3: level-0 blame from the sampled instruction's membership in
// blame sets, then exit-variable bubbling through each call/spawn site
// using the transfer functions.
//
// The blamed entities are appended to dst, which is returned extended:
// callers that consume each sample's result before the next pass one
// buffer back in (as buf[:0]) and attribute without allocating.
func (a *Analysis) AttributeSample(dst []Blamed, path []Frame) []Blamed {
	// A sample blames a handful of entities, so deduplicating by a scan
	// of the result beats allocating sets for every sample.
	out := dst
	base := len(dst)
	record := func(v *ir.Var) {
		if !displayable(v) {
			return
		}
		for _, b := range out[base:] {
			if b.Sym == v.Sym && b.Path == "" {
				return
			}
		}
		out = append(out, Blamed{Sym: v.Sym, Var: v})
	}
	recordPath := func(pb *PathBlame) {
		for _, b := range out[base:] {
			if b.Path == pb.Path {
				return
			}
		}
		out = append(out, Blamed{Path: pb.Path, Root: pb.Root, Sym: pb.Root.Sym})
	}

	for level := 0; level < len(path); level++ {
		fr := path[level]
		fa := a.Funcs[fr.Fn]
		if fa == nil || fr.Instr == nil {
			break
		}
		idx, inFunc := fa.index[fr.Instr]
		var tab *attribTable
		if inFunc {
			tab = fa.table(a)
			for _, v := range tab.vars.at(idx) {
				record(v)
			}
		}
		// Caller-side transfer at a call site reached through a blamed
		// exit: "establish a blame relationship between the blamed
		// parameter(s) and the parameter(s) that are not blamed in the
		// caller" (§IV.A) — the other arguments fed the blamed work.
		if level > 0 && (fr.Instr.Op == ir.OpCall || fr.Instr.Op == ir.OpSpawn) {
			for _, arg := range fr.Instr.Args {
				if !aggregateArg(arg) {
					continue
				}
				record(arg)
				for _, g := range a.globalMembers[a.find(arg)] {
					record(g)
				}
			}
		}
		if !inFunc {
			break
		}
		if a.Opts.TrackPaths {
			for _, pb := range tab.paths.at(idx) {
				recordPath(pb)
			}
		}
		// Bubble only while an exit variable carries the blame upward.
		if !a.Opts.Interprocedural || !tab.exit[idx] {
			break
		}
	}
	return out
}
