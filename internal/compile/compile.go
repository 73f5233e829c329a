// Package compile is the driver that runs the full MiniChapel pipeline:
// parse → semantic analysis → IR generation → (optionally) the --fast
// optimization pipeline. It corresponds to invoking the Chapel compiler
// with "--llvm [--fast] -g" in the paper's experiments.
package compile

import (
	"crypto/sha256"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/sem"
	"repro/internal/source"
)

// Options controls compilation.
type Options struct {
	// Fast enables the optimization pipeline (constant folding, dead-code
	// elimination, bounds-check elision, small-function inlining). Like
	// Chapel's --fast, it also degrades the variable debug fidelity the
	// blame analysis depends on (paper §V): optimized-out temporaries
	// lose their source mapping.
	Fast bool
	// NoChecks elides bounds checks without the rest of --fast
	// (the paper compiles with "--no-checks -g").
	NoChecks bool
}

// Result bundles the compilation products.
type Result struct {
	FileSet *source.FileSet
	AST     *ast.Program
	Info    *sem.Info
	Prog    *ir.Program
	Opts    Options
}

// Source compiles MiniChapel source text.
func Source(name, src string, opts Options) (*Result, error) {
	fset := source.NewFileSet()
	prog, err := parser.ParseFile(fset, name, src)
	if err != nil {
		return nil, err
	}
	info, err := sem.Check(fset, prog)
	if err != nil {
		return nil, err
	}
	irProg, err := irgen.Generate(info, prog)
	if err != nil {
		return nil, err
	}
	res := &Result{FileSet: fset, AST: prog, Info: info, Prog: irProg, Opts: opts}
	if opts.Fast {
		optimize(res)
	}
	return res, nil
}

type sourceKey struct {
	name string
	hash [sha256.Size]byte
	opts Options
}

// SourceCached compiles like Source, memoized in memo.Shared under
// (name, hash of src, opts). Compilation is deterministic and a Result is
// immutable once built, so hits return the identical *Result to every
// caller and goroutine; concurrent lookups of one key compile once.
// Errors are memoized too: a source that failed keeps failing without
// re-parsing.
func SourceCached(name, src string, opts Options) (*Result, error) {
	k := sourceKey{name: name, hash: sha256.Sum256([]byte(src)), opts: opts}
	return memo.Do(memo.Shared, "compile", k, func() (*Result, error) {
		return Source(name, src, opts)
	}, resultSize)
}

// resultSize estimates the heap a Result keeps reachable (AST, semantic
// info and IR): about 350-600 bytes per IR instruction across the
// embedded benchmarks, 1.4 MB for LULESH.
func resultSize(r *Result) int64 { return 450 * int64(len(r.Prog.Instrs)) }

// MustSource compiles or panics; for tests and embedded benchmarks whose
// sources are compiled-in constants.
func MustSource(name, src string, opts Options) *Result {
	r, err := Source(name, src, opts)
	if err != nil {
		panic(err)
	}
	return r
}
