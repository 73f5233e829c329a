// Package gobert is the runtime support library for the Go compiled
// backend (internal/gobe). Generated per-program runners are separate Go
// modules that `replace repro => <repo>`; Go's internal-package rule
// keeps them out of internal/..., so this package re-exports exactly the
// surface generated code needs: the VM types whose cells it manipulates,
// the backend seam (vm.SliceFn, vm.Retire, vm.StepOne), and the runner
// entry point (Main) that speaks the host protocol on stdin/stdout.
//
// This is machine-facing plumbing, not a user API: the only intended
// importer is code emitted by internal/gobe.
package gobert

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Re-exported types. Generated code reads and writes Value cells
// directly (that is where its speed comes from), walks Activation
// frames, and resolves blocks from the recompiled Program.
type (
	VM         = vm.VM
	Task       = vm.Task
	Activation = vm.Activation
	Value      = vm.Value
	ArrayVal   = vm.ArrayVal
	Program    = ir.Program
	Func       = ir.Func
	Block      = ir.Block
	SliceFn    = vm.SliceFn
)

// Re-exported value kinds (guards in generated fast paths).
const (
	KNil    = vm.KNil
	KInt    = vm.KInt
	KReal   = vm.KReal
	KBool   = vm.KBool
	KString = vm.KString
	KTuple  = vm.KTuple
	KRecord = vm.KRecord
	KArray  = vm.KArray
	KDomain = vm.KDomain
	KRange  = vm.KRange
	KRef    = vm.KRef
	KClass  = vm.KClass
	KLocale = vm.KLocale
)

// IPow is the interpreter's integer exponentiation (OpBin POW).
func IPow(a, b int64) int64 { return vm.IPow(a, b) }

// Value constructors: generated code stores whole Values built by these.
func IntVal(i int64) Value    { return vm.IntVal(i) }
func RealVal(f float64) Value { return vm.RealVal(f) }
func BoolVal(b bool) Value    { return vm.BoolVal(b) }
func StrVal(s string) Value   { return vm.StrVal(s) }

// MakeRef is the interpreter's reference binding (ref-to-ref collapsed).
func MakeRef(cell *Value) Value { return vm.MakeRef(cell) }

// AsRealF is Value.AsReal for a caller that already proved v is KInt or
// KReal: without AsReal's reference case it is small enough to inline
// into generated kernels.
func AsRealF(v *Value) float64 {
	if v.K == KInt {
		return float64(v.I)
	}
	return v.F()
}

// FuncFn is one compiled IR function. It executes instructions of
// activation a (which must be t's innermost frame, running this
// function) until the slice budget runs out, the slice must stop, or
// control leaves the activation's compiled region. It returns the
// remaining budget and whether the whole slice must stop (error, halt,
// block, or task end).
type FuncFn func(m *VM, t *Task, a *Activation, budget int) (int, bool)

// used records that a compiled slice actually dispatched — the runner
// refuses to report results from an accidental interpreter run.
var used bool

// CompiledUsed reports whether the compiled dispatch loop ever ran.
func CompiledUsed() bool { return used }

// MakeSlice builds the VM slice hook from the per-function table
// (indexed by ir.Func.ID). It mirrors the interpreter's slice loop: one
// budget unit per retired instruction, iteration-driver advance, or
// frame pop; anything the compiled functions do not cover falls back to
// the interpreter one step at a time, which keeps the two backends
// semantically identical by construction.
func MakeSlice(fns []FuncFn) SliceFn {
	return func(m *VM, t *Task, quantum int) {
		used = true
		budget := quantum
		for budget > 0 {
			if m.SliceStop(t) {
				return
			}
			a := t.Top()
			if a != nil && a.Block != nil && a.Idx < len(a.Block.Instrs) && a.F != nil {
				if id := a.F.ID; id >= 0 && id < len(fns) && fns[id] != nil {
					nb, stop := fns[id](m, t, a, budget)
					if stop {
						return
					}
					if nb < budget {
						budget = nb
						continue
					}
				}
			}
			if !m.StepOne(t) {
				return
			}
			budget--
		}
	}
}

// Fingerprint hashes the program shape the generated code depends on:
// function order and IDs, block order and sizes, and every instruction's
// opcode and dense address. The runner recompiles its embedded source and
// compares fingerprints before installing compiled functions, so a
// frontend change that shifts the IR can never silently execute stale
// code against the wrong program.
func Fingerprint(p *ir.Program) string {
	h := sha256.New()
	fmt.Fprintf(h, "g%d i%d\n", len(p.Globals), len(p.Instrs))
	for _, f := range p.Funcs {
		fmt.Fprintf(h, "f%d %s b%d\n", f.ID, f.Name, len(f.Blocks))
		for _, b := range f.Blocks {
			fmt.Fprintf(h, " b%d n%d\n", b.ID, len(b.Instrs))
			for _, in := range b.Instrs {
				writeInstrSig(h, in)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeInstrSig(w io.Writer, in *ir.Instr) {
	fmt.Fprintf(w, "  %d@%d\n", int(in.Op), in.Addr)
}
