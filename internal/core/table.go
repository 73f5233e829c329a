package core

import (
	"slices"
	"sort"

	"repro/internal/ir"
)

// attribTable is one function's blame sets inverted per instruction: the
// displayable variables and the access paths whose blame sets contain the
// instruction, and whether an exit variable's does. It is built once, on
// the function's first attribution, so AttributeSample costs O(frames +
// blamed entities) per sample instead of a scan of every variable.
type attribTable struct {
	vars  rows[*ir.Var]
	paths rows[*PathBlame]
	exit  []bool
}

// rows maps each instruction index to one interned list, stored flat:
// list k is data[off[k]:off[k+1]], and instructions blamed by the same
// set of classes share a list.
type rows[T any] struct {
	list []int32
	off  []int32
	data []T
}

func (r *rows[T]) at(i int) []T {
	k := r.list[i]
	return r.data[r.off[k]:r.off[k+1]]
}

// table returns fa's attribution table, building it on first use. The
// Analysis is shared across goroutines, so the build runs exactly once.
func (fa *FuncAnalysis) table(a *Analysis) *attribTable {
	fa.tableOnce.Do(func() { fa.tab = a.buildTable(fa) })
	return fa.tab
}

func (a *Analysis) buildTable(fa *FuncAnalysis) *attribTable {
	n := len(fa.instrs)

	// covered enumerates the instructions a blame set covers: its own
	// members, or at line granularity every instruction on one of its
	// members' lines.
	var lineInstrs map[int32][]int32
	var seenLine map[int32]bool
	if a.Opts.LineGranularity {
		lineInstrs, seenLine = make(map[int32][]int32), make(map[int32]bool)
		for i, in := range fa.instrs {
			if in.Pos.IsValid() {
				lineInstrs[in.Pos.Line] = append(lineInstrs[in.Pos.Line], int32(i))
			}
		}
	}
	covered := func(set *bitset, fn func(int)) {
		if lineInstrs == nil {
			set.each(fn)
			return
		}
		clear(seenLine)
		set.each(func(j int) {
			p := fa.instrs[j].Pos
			if !p.IsValid() || seenLine[p.Line] {
				return
			}
			seenLine[p.Line] = true
			for _, i := range lineInstrs[p.Line] {
				fn(int(i))
			}
		})
	}

	// Alias classes with something to display, in a fixed order: by first
	// appearance among fa.vars, then classes reached only through a global
	// alias, in program order.
	type class struct {
		set     *bitset
		members []int32   // displayable fa.vars positions, ascending
		extra   []*ir.Var // displayable global aliases absent from fa.vars (RealPos in MiniMD)
	}
	var classes []class
	classOf := make(map[*ir.Var]int)
	classFor := func(rep *ir.Var) *class {
		c, ok := classOf[rep]
		if !ok {
			c = len(classes)
			classOf[rep] = c
			classes = append(classes, class{set: fa.blame[rep]})
		}
		return &classes[c]
	}
	inFunc := make(map[*ir.Var]bool) // globals that appear in fa.vars
	for i, v := range fa.vars {
		if v.IsGlobal {
			inFunc[v] = true
		}
		rep := a.find(v)
		if fa.blame[rep] != nil && displayable(v) {
			c := classFor(rep)
			c.members = append(c.members, int32(i))
		}
	}
	for _, g := range a.Prog.Globals {
		rep := a.find(g)
		if fa.blame[rep] != nil && displayable(g) && !inFunc[g] {
			c := classFor(rep)
			c.extra = append(c.extra, g)
		}
	}

	t := &attribTable{exit: make([]bool, n)}
	off, keys := invert(n, len(classes), func(c int, fn func(int)) {
		covered(classes[c].set, fn)
	})
	var pos []int32
	t.vars = intern(off, keys, func(key []int32, dst []*ir.Var) []*ir.Var {
		pos = pos[:0]
		for _, c := range key {
			pos = append(pos, classes[c].members...)
		}
		slices.Sort(pos)
		for _, p := range pos {
			dst = append(dst, fa.vars[p])
		}
		for _, c := range key {
			dst = append(dst, classes[c].extra...)
		}
		return dst
	})

	paths := make([]*PathBlame, 0, len(fa.Paths))
	for _, pb := range fa.Paths {
		paths = append(paths, pb)
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].Path < paths[j].Path })
	off, keys = invert(n, len(paths), func(c int, fn func(int)) {
		covered(paths[c].set, fn)
	})
	t.paths = intern(off, keys, func(key []int32, dst []*PathBlame) []*PathBlame {
		for _, c := range key {
			dst = append(dst, paths[c])
		}
		return dst
	})

	for _, e := range fa.Exits {
		rep := a.find(e)
		if s := fa.blame[rep]; s != nil {
			covered(s, func(i int) { t.exit[i] = true })
		}
	}
	return t
}

// invert turns k per-class instruction sets into per-instruction class
// lists, flat: instruction i's classes, ascending, are
// data[off[i]:off[i+1]]. It walks each set twice, to count and to fill.
func invert(n, k int, each func(c int, fn func(int))) (off, data []int32) {
	off = make([]int32, n+1)
	for c := 0; c < k; c++ {
		each(c, func(i int) { off[i+1]++ })
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	data = make([]int32, off[n])
	next := slices.Clone(off[:n])
	for c := 0; c < k; c++ {
		each(c, func(i int) {
			data[next[i]] = int32(c)
			next[i]++
		})
	}
	return off, data
}

// intern builds rows from per-instruction keys (as invert lays them out),
// expanding each distinct key once.
func intern[T any](off, keys []int32, expand func(key []int32, dst []T) []T) rows[T] {
	n := len(off) - 1
	r := rows[T]{list: make([]int32, n), off: []int32{0}}
	var first []int32 // list id → the instruction whose key made it
	byHash := make(map[uint64]int32)
	keyOf := func(i int32) []int32 { return keys[off[i]:off[i+1]] }
	for i := range r.list {
		key := keyOf(int32(i))
		h := hashKey(key)
		k, ok := byHash[h]
		if ok && slices.Equal(keyOf(first[k]), key) {
			r.list[i] = k
			continue
		}
		// A hash collision leaves the second key uninterned: still correct.
		k = int32(len(first))
		if !ok {
			byHash[h] = k
		}
		first = append(first, int32(i))
		r.data = expand(key, r.data)
		r.off = append(r.off, int32(len(r.data)))
		r.list[i] = k
	}
	return r
}

// hashKey is an FNV-1a-style hash over a key's class indices.
func hashKey(key []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(uint32(c))
		h *= 1099511628211
	}
	return h
}
