// Package vm implements the MiniChapel runtime: a deterministic
// interpreter over the IR with a cycle-accurate cost model, a tasking
// layer (forall/coforall worker tasks with spawn tags), simulated
// multi-core scheduling, locales, and the monitoring hooks (per-segment
// execution events, allocation events, spawn events) that the sampling
// profiler (internal/sampler) attaches to.
//
// The VM substitutes for the paper's 12-core Xeon + PAPI PMU + Dyninst
// stack: cycle counts are exact and reproducible, so blame percentages
// are deterministic for a given program, input and sampling threshold.
package vm

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/types"
)

// Kind tags runtime values.
type Kind uint8

// Value kinds.
const (
	KNil Kind = iota
	KInt
	KReal
	KBool
	KString
	KTuple  // homogeneous tuple (Elems)
	KRecord // record by value (Elems are fields)
	KArray  // array descriptor (possibly a view)
	KDomain
	KRange
	KRef    // reference to a storage cell
	KClass  // class instance handle
	KLocale // locale id in I
)

// Value is a runtime value: a kind tag, one scalar word and one
// reference word (24 bytes, so moves are register copies and an array
// element costs three words).
//
//   - I is the scalar word: the int64 of KInt, the IEEE-754 bits of KReal
//     (read them with F), 0 or 1 for KBool and the locale id of KLocale.
//     For KString, KTuple and KRecord it holds the length of what p
//     points at.
//   - p is the reference word, typed by K: the string's bytes, the first
//     tuple/record element, a *DomainVal or *RangeVal box, the referenced
//     cell (KRef), the *ArrayVal or the *Instance. Scalars leave it nil.
//     Outside the scalar kinds the constructors set I and p together, and
//     nothing writes either alone.
//
// Domain and range boxes are immutable once a Value holds them: every
// change builds a new box, so copies share them freely. Tuple and record
// elements belong to the cell holding them — assignment deep-copies them
// (Copy) and stores into them mutate in place — while arrays and class
// instances are shared by reference.
type Value struct {
	K Kind
	I int64
	p unsafe.Pointer
}

// F returns a KReal's value.
func (v Value) F() float64 { return math.Float64frombits(uint64(v.I)) }

// B returns a KBool's value.
func (v Value) B() bool { return v.I != 0 }

// S returns a KString's value ("" for other kinds).
func (v Value) S() string {
	if v.K != KString {
		return ""
	}
	return unsafe.String((*byte)(v.p), v.I)
}

// Elems returns a tuple's elements or a record's fields (nil for other
// kinds). The slice aliases the value's storage: element stores write
// through.
func (v Value) Elems() []Value {
	if v.K != KTuple && v.K != KRecord {
		return nil
	}
	return unsafe.Slice((*Value)(v.p), v.I)
}

// Arr returns a KArray's descriptor (nil for other kinds).
func (v Value) Arr() *ArrayVal {
	if v.K != KArray {
		return nil
	}
	return (*ArrayVal)(v.p)
}

// Dom returns a copy of a KDomain's index set (the zero domain for other
// kinds); the box itself is never written.
func (v Value) Dom() DomainVal {
	if v.K != KDomain || v.p == nil {
		return DomainVal{}
	}
	return *(*DomainVal)(v.p)
}

// Rng returns a KRange's bounds (the zero range for other kinds).
func (v Value) Rng() RangeVal {
	if v.K != KRange || v.p == nil {
		return RangeVal{}
	}
	return *(*RangeVal)(v.p)
}

// Ref returns the cell a KRef refers to (nil for other kinds).
func (v Value) Ref() *Value {
	if v.K != KRef {
		return nil
	}
	return (*Value)(v.p)
}

// Obj returns a KClass's instance (nil for other kinds and nil handles).
func (v Value) Obj() *Instance {
	if v.K != KClass {
		return nil
	}
	return (*Instance)(v.p)
}

// Copy returns a deep copy with value semantics (tuples/records copied,
// arrays/instances shared by reference, immutable boxes shared).
func (v Value) Copy() Value {
	if v.K == KTuple || v.K == KRecord {
		v.p = elemsPtr(cloneTree(v.Elems()))
	}
	return v
}

// elemsPtr is the reference word of a tuple/record over elems.
func elemsPtr(elems []Value) unsafe.Pointer {
	if len(elems) == 0 {
		return nil
	}
	return unsafe.Pointer(unsafe.SliceData(elems))
}

// cloneTree deep-copies a tuple/record element tree into one backing
// allocation (instead of one per nesting level): countTree sizes it
// exactly, so the appends in cloneInto never reallocate and every
// interior slice stays valid.
func cloneTree(elems []Value) []Value {
	buf := make([]Value, 0, countTree(elems))
	out, _ := cloneInto(elems, buf)
	return out
}

// countTree returns the total element count across all nesting levels.
func countTree(elems []Value) int {
	n := len(elems)
	for i := range elems {
		n += countTree(elems[i].Elems())
	}
	return n
}

// cloneInto appends a deep copy of src to buf and returns the copied
// level (capped so it cannot grow over its successors) plus the
// extended buffer.
func cloneInto(src, buf []Value) ([]Value, []Value) {
	off := len(buf)
	buf = append(buf, src...)
	out := buf[off : off+len(src) : off+len(src)]
	for i := range out {
		if k := out[i].K; k == KTuple || k == KRecord {
			var sub []Value
			sub, buf = cloneInto(out[i].Elems(), buf)
			out[i].p = elemsPtr(sub)
		}
	}
	return out, buf
}

// FlatSize returns the number of scalar elements copied when assigning v
// (drives the cost model for tuple/record moves).
func (v Value) FlatSize() int {
	switch v.K {
	case KTuple, KRecord:
		n := 0
		for _, e := range v.Elems() {
			n += e.FlatSize()
		}
		return n
	}
	return 1
}

// Deref follows a reference chain to the target cell.
func (v *Value) Deref() *Value {
	x := v
	for x.K == KRef {
		x = (*Value)(x.p)
	}
	return x
}

func (v Value) String() string {
	switch v.K {
	case KNil:
		return "nil"
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KReal:
		return formatReal(v.F())
	case KBool:
		return fmt.Sprintf("%t", v.B())
	case KString:
		return v.S()
	case KTuple, KRecord:
		var b strings.Builder
		b.WriteByte('(')
		for i, e := range v.Elems() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte(')')
		return b.String()
	case KArray:
		return v.Arr().String()
	case KDomain:
		return v.Dom().String()
	case KRange:
		return v.Rng().String()
	case KRef:
		return v.Deref().String()
	case KClass:
		if v.Obj() == nil {
			return "nil"
		}
		return "{" + v.Obj().String() + "}"
	case KLocale:
		return fmt.Sprintf("LOCALE%d", v.I)
	}
	return "?"
}

// formatReal matches Chapel's writeln float formatting closely enough for
// golden tests: integral values print with a trailing ".0".
func formatReal(f float64) string {
	s := fmt.Sprintf("%g", f)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// AsInt coerces numeric values to int64.
func (v Value) AsInt() int64 {
	switch v.K {
	case KInt:
		return v.I
	case KReal:
		return int64(v.F())
	case KBool:
		return v.I
	case KRef:
		return v.Deref().AsInt()
	}
	return 0
}

// AsReal coerces numeric values to float64.
func (v Value) AsReal() float64 {
	switch v.K {
	case KInt:
		return float64(v.I)
	case KReal:
		return v.F()
	case KRef:
		return v.Deref().AsReal()
	}
	return 0
}

// IntVal makes a KInt value.
func IntVal(i int64) Value { return Value{K: KInt, I: i} }

// RealVal makes a KReal value.
func RealVal(f float64) Value { return Value{K: KReal, I: int64(math.Float64bits(f))} }

// BoolVal makes a KBool value.
func BoolVal(b bool) Value {
	v := Value{K: KBool}
	if b {
		v.I = 1
	}
	return v
}

// StrVal makes a KString value.
func StrVal(s string) Value {
	return Value{K: KString, I: int64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// TupleVal makes a KTuple over elems, which it takes ownership of.
func TupleVal(elems []Value) Value {
	return Value{K: KTuple, I: int64(len(elems)), p: elemsPtr(elems)}
}

// RecordVal makes a KRecord over fields, which it takes ownership of.
func RecordVal(fields []Value) Value {
	return Value{K: KRecord, I: int64(len(fields)), p: elemsPtr(fields)}
}

// ArrVal makes a KArray handle.
func ArrVal(a *ArrayVal) Value { return Value{K: KArray, p: unsafe.Pointer(a)} }

// ObjVal makes a KClass handle.
func ObjVal(o *Instance) Value { return Value{K: KClass, p: unsafe.Pointer(o)} }

// DomVal makes a KDomain in a fresh box.
func DomVal(d DomainVal) Value { return Value{K: KDomain, p: unsafe.Pointer(&d)} }

// RngVal makes a KRange in a fresh box.
func RngVal(r RangeVal) Value { return Value{K: KRange, p: unsafe.Pointer(&r)} }

// MakeRef wraps a cell as a reference, collapsing ref-to-ref.
func MakeRef(cell *Value) Value {
	if cell.K == KRef {
		return *cell
	}
	return Value{K: KRef, p: unsafe.Pointer(cell)}
}

// ------------------------------------------------------------------ range

// RangeVal is lo..hi with a stride.
type RangeVal struct {
	Lo, Hi, Stride int64
}

// Size returns the number of indices.
func (r RangeVal) Size() int64 {
	if r.Stride == 0 {
		r.Stride = 1
	}
	if r.Hi < r.Lo {
		return 0
	}
	return (r.Hi-r.Lo)/r.Stride + 1
}

func (r RangeVal) String() string {
	s := fmt.Sprintf("%d..%d", r.Lo, r.Hi)
	if r.Stride > 1 {
		s += fmt.Sprintf(" by %d", r.Stride)
	}
	return s
}

// ----------------------------------------------------------------- domain

// DomainVal is a rectangular index set of rank 1..3.
type DomainVal struct {
	Rank int
	Dims [3]RangeVal
	// Dist marks a Block-distributed domain: arrays allocated over it
	// partition their elements block-wise across locales (dim 0).
	Dist bool
}

// Size returns the total number of indices.
func (d DomainVal) Size() int64 {
	if d.Rank == 0 {
		return 0
	}
	n := int64(1)
	for i := 0; i < d.Rank; i++ {
		n *= d.Dims[i].Size()
	}
	return n
}

// Contains reports whether idx (len == Rank) is inside the domain.
func (d DomainVal) Contains(idx []int64) bool {
	for i := 0; i < d.Rank; i++ {
		r := d.Dims[i]
		if idx[i] < r.Lo || idx[i] > r.Hi {
			return false
		}
	}
	return true
}

// Linear maps a multi-index to a row-major position within the domain.
func (d DomainVal) Linear(idx []int64) int64 {
	var pos int64
	for i := 0; i < d.Rank; i++ {
		r := d.Dims[i]
		pos = pos*r.Size() + (idx[i] - r.Lo)
	}
	return pos
}

// Unlinear maps a row-major position back to a multi-index.
func (d DomainVal) Unlinear(pos int64, idx []int64) {
	for i := d.Rank - 1; i >= 0; i-- {
		r := d.Dims[i]
		n := r.Size()
		idx[i] = r.Lo + pos%n
		pos /= n
	}
}

// Expand grows (or shrinks, for negative k) every dimension by k on both
// sides — Chapel's D.expand(k).
func (d DomainVal) Expand(k int64) DomainVal {
	out := d
	for i := 0; i < d.Rank; i++ {
		out.Dims[i].Lo -= k
		out.Dims[i].Hi += k
	}
	return out
}

// Translate shifts every dimension by k.
func (d DomainVal) Translate(k int64) DomainVal {
	out := d
	for i := 0; i < d.Rank; i++ {
		out.Dims[i].Lo += k
		out.Dims[i].Hi += k
	}
	return out
}

func (d DomainVal) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < d.Rank; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.Dims[i].String())
	}
	b.WriteByte('}')
	return b.String()
}

// ------------------------------------------------------------------ array

// ArrayVal is an array descriptor. Views (slices) share Data and Layout
// with their parent; Dom restricts the visible index set. Element storage
// is row-major over Layout.
type ArrayVal struct {
	Dom    DomainVal // visible index set
	Layout DomainVal // allocation layout (== Dom for owners)
	Data   []Value
	ElemT  types.Type

	// View links a slice to the array it aliases (nil for owners). The
	// paper's blame definition includes writes through aliases.
	View *ArrayVal

	// Allocation metadata for the data-centric baselines.
	Addr      uint64
	SizeBytes int64
	OwnerVar  *ir.Var
	LocaleID  int
	// DistBlock partitions element homes block-wise over dim 0 across
	// NumLoc locales (Block-dmapped arrays).
	DistBlock bool
	NumLoc    int
}

// ElemHome returns the locale owning the element at idx.
func (a *ArrayVal) ElemHome(idx []int64) int {
	o := a.Owner()
	if !o.DistBlock || o.NumLoc <= 1 {
		return o.LocaleID
	}
	d := o.Layout.Dims[0]
	n := d.Size()
	if n <= 0 {
		return o.LocaleID
	}
	pos := idx[0] - d.Lo
	if pos < 0 {
		pos = 0
	}
	if pos >= n {
		pos = n - 1
	}
	home := int(pos * int64(o.NumLoc) / n)
	if home >= o.NumLoc {
		home = o.NumLoc - 1
	}
	return home
}

// Owner follows view links to the owning allocation.
func (a *ArrayVal) Owner() *ArrayVal {
	x := a
	for x.View != nil {
		x = x.View
	}
	return x
}

// Cell returns a pointer to the element cell for idx, or nil if out of
// the layout.
func (a *ArrayVal) Cell(idx []int64) *Value {
	if !a.Layout.Contains(idx) {
		return nil
	}
	return &a.Data[a.Layout.Linear(idx)]
}

func (a *ArrayVal) String() string {
	if a == nil {
		return "<nil array>"
	}
	n := a.Dom.Size()
	if n > 16 {
		return fmt.Sprintf("[%s array of %d %s]", a.Dom, n, a.ElemT)
	}
	var b strings.Builder
	first := true
	idx := make([]int64, a.Dom.Rank)
	for p := int64(0); p < n; p++ {
		a.Dom.Unlinear(p, idx)
		if !first {
			b.WriteByte(' ')
		}
		first = false
		c := a.Cell(idx)
		if c != nil {
			b.WriteString(c.String())
		}
	}
	return b.String()
}

// --------------------------------------------------------------- instance

// Instance is a class object.
type Instance struct {
	Type      *types.RecordType
	Fields    []Value
	Addr      uint64
	SizeBytes int64
	OwnerVar  *ir.Var
	LocaleID  int
}

func (o *Instance) String() string {
	var b strings.Builder
	for i, f := range o.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s = %s", o.Type.Fields[i].Name, f.String())
	}
	return b.String()
}
