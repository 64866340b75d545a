// Package value defines the dynamic value model shared by the agent
// language interpreter, agent data states, input logs, and execution
// traces.
//
// Values are deliberately restricted to a small, deterministic set of
// kinds (integers, strings, booleans, lists, and string-keyed maps) so
// that every value an agent can compute has a canonical binary encoding
// (see package canon) and therefore a reproducible digest. That property
// is load-bearing for every reference-state protection mechanism: two
// hosts that execute the same code on the same input must produce
// byte-identical state digests.
package value

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind int

// The supported value kinds. Null is the zero value of a variable that
// has never been assigned; agents can test for it with isnull().
const (
	KindNull Kind = iota + 1
	KindInt
	KindString
	KindBool
	KindList
	KindMap
)

// String returns the lower-case name of the kind as used in agent-facing
// error messages.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindList:
		return "list"
	case KindMap:
		return "map"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is a dynamically typed agent value. The zero Value is Null.
//
// Value is a plain struct (not an interface) so that it is directly
// encodable with encoding/gob and cheap to copy for scalar kinds.
// Composite kinds (List, Map) share underlying storage when copied by
// assignment; use Clone for a deep copy at trust boundaries.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
	Bool bool
	List []Value
	Map  map[string]Value

	// shared marks composite storage as co-owned with a copy-on-write
	// snapshot (see State.Snapshot). Write paths that honour the flag
	// (Owned, the interpreter's indexed assignment) copy the level
	// before mutating it. The flag is unexported and ignored by gob;
	// decoded values are always exclusively owned.
	shared bool
}

// Null is the canonical null value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// List returns a list value backed by the given slice. The slice is not
// copied; use Clone if the caller retains a reference.
func List(elems ...Value) Value { return Value{Kind: KindList, List: elems} }

// Map returns a map value backed by the given map. The map is not
// copied; use Clone if the caller retains a reference.
func Map(m map[string]Value) Value {
	if m == nil {
		m = make(map[string]Value)
	}
	return Value{Kind: KindMap, Map: m}
}

// IsNull reports whether v is the null value. A zero Value (Kind == 0)
// is also treated as null so that uninitialized struct fields behave.
func (v Value) IsNull() bool { return v.Kind == KindNull || v.Kind == 0 }

// Truthy reports the boolean interpretation of v: false for null, zero,
// the empty string, and empty composites; true otherwise. It takes a
// pointer because the interpreter asks it of every condition it runs,
// and a Value is 80 bytes to copy.
func (v *Value) Truthy() bool {
	switch v.Kind {
	case KindInt:
		return v.Int != 0
	case KindString:
		return v.Str != ""
	case KindBool:
		return v.Bool
	case KindList:
		return len(v.List) > 0
	case KindMap:
		return len(v.Map) > 0
	default:
		return false
	}
}

// Clone returns a deep copy of v. Scalars are returned as-is; lists and
// maps are copied recursively. Clone must be used whenever a value
// crosses a trust or session boundary (e.g. snapshotting an agent state
// before execution) so that later mutation cannot retroactively alter
// the snapshot.
func (v Value) Clone() Value {
	switch v.Kind {
	case KindList:
		out := make([]Value, len(v.List))
		for i, e := range v.List {
			out[i] = e.Clone()
		}
		return Value{Kind: KindList, List: out}
	case KindMap:
		out := make(map[string]Value, len(v.Map))
		for k, e := range v.Map {
			out[k] = e.Clone()
		}
		return Value{Kind: KindMap, Map: out}
	default:
		return v
	}
}

// Shared reports whether v's composite storage is marked as co-owned
// with a copy-on-write snapshot.
func (v Value) Shared() bool { return v.shared }

// ShareFrom returns child carrying parent's copy-on-write flag. Every
// operation that extracts a value from inside a composite (indexed
// reads, map lookups, element copies) must route the result through
// this: a child of a shared composite co-owns snapshot storage, so
// writes through the extracted value have to copy exactly like writes
// through the parent would.
func ShareFrom(parent, child Value) Value {
	if parent.shared && (child.Kind == KindList || child.Kind == KindMap) {
		child.shared = true
	}
	return child
}

// Owned returns v ready for in-place mutation of its top-level storage.
// If v is marked shared with a copy-on-write snapshot, the list or map
// is copied one level deep and the copy's composite elements are in
// turn marked shared, pushing the lazy isolation down one level. Write
// paths must store the returned value back into v's binding: after a
// copy, v's old storage still belongs to the snapshot.
func Owned(v Value) Value {
	if !v.shared {
		return v
	}
	switch v.Kind {
	case KindList:
		out := make([]Value, len(v.List))
		for i, e := range v.List {
			if e.Kind == KindList || e.Kind == KindMap {
				e.shared = true
			}
			out[i] = e
		}
		return Value{Kind: KindList, List: out}
	case KindMap:
		out := make(map[string]Value, len(v.Map))
		for k, e := range v.Map {
			if e.Kind == KindList || e.Kind == KindMap {
				e.shared = true
			}
			out[k] = e
		}
		return Value{Kind: KindMap, Map: out}
	default:
		v.shared = false
		return v
	}
}

// Equal reports deep structural equality of two values. Values of
// different kinds are never equal (there is no implicit coercion).
func (v Value) Equal(o Value) bool {
	vk, ok := v.Kind, o.Kind
	if vk == 0 {
		vk = KindNull
	}
	if ok == 0 {
		ok = KindNull
	}
	if vk != ok {
		return false
	}
	switch vk {
	case KindNull:
		return true
	case KindInt:
		return v.Int == o.Int
	case KindString:
		return v.Str == o.Str
	case KindBool:
		return v.Bool == o.Bool
	case KindList:
		if len(v.List) != len(o.List) {
			return false
		}
		for i := range v.List {
			if !v.List[i].Equal(o.List[i]) {
				return false
			}
		}
		return true
	case KindMap:
		if len(v.Map) != len(o.Map) {
			return false
		}
		for k, e := range v.Map {
			oe, present := o.Map[k]
			if !present || !e.Equal(oe) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders two values totally: first by kind, then by content.
// Lists compare lexicographically; maps compare by sorted key/value
// sequence. The total order exists so that sorting and canonical
// encoding are deterministic; it is not exposed to agent programs
// except between values of the same scalar kind.
func (v Value) Compare(o Value) int {
	vk, ok := v.Kind, o.Kind
	if vk == 0 {
		vk = KindNull
	}
	if ok == 0 {
		ok = KindNull
	}
	if vk != ok {
		return int(vk) - int(ok)
	}
	switch vk {
	case KindNull:
		return 0
	case KindInt:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(v.Str, o.Str)
	case KindBool:
		switch {
		case !v.Bool && o.Bool:
			return -1
		case v.Bool && !o.Bool:
			return 1
		default:
			return 0
		}
	case KindList:
		n := len(v.List)
		if len(o.List) < n {
			n = len(o.List)
		}
		for i := 0; i < n; i++ {
			if c := v.List[i].Compare(o.List[i]); c != 0 {
				return c
			}
		}
		return len(v.List) - len(o.List)
	case KindMap:
		vk2, ok2 := SortedKeys(v.Map), SortedKeys(o.Map)
		n := len(vk2)
		if len(ok2) < n {
			n = len(ok2)
		}
		for i := 0; i < n; i++ {
			if c := strings.Compare(vk2[i], ok2[i]); c != 0 {
				return c
			}
			if c := v.Map[vk2[i]].Compare(o.Map[ok2[i]]); c != 0 {
				return c
			}
		}
		return len(vk2) - len(ok2)
	default:
		return 0
	}
}

// String renders v in agentlang literal syntax, suitable for logs and
// fraud evidence reports.
func (v Value) String() string {
	var b strings.Builder
	v.render(&b)
	return b.String()
}

func (v Value) render(b *strings.Builder) {
	switch v.Kind {
	case KindInt:
		b.WriteString(strconv.FormatInt(v.Int, 10))
	case KindString:
		b.WriteString(strconv.Quote(v.Str))
	case KindBool:
		b.WriteString(strconv.FormatBool(v.Bool))
	case KindList:
		b.WriteByte('[')
		for i, e := range v.List {
			if i > 0 {
				b.WriteString(", ")
			}
			e.render(b)
		}
		b.WriteByte(']')
	case KindMap:
		b.WriteByte('{')
		for i, k := range SortedKeys(v.Map) {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strconv.Quote(k))
			b.WriteString(": ")
			v.Map[k].render(b)
		}
		b.WriteByte('}')
	default:
		b.WriteString("null")
	}
}

// SortedKeys returns the keys of m in ascending order. It is used by
// every component that must iterate a map deterministically.
func SortedKeys(m map[string]Value) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// State is a named collection of agent variables: the "variable parts"
// of an agent in the paper's terminology. It is the unit that reference
// states are defined over.
type State map[string]Value

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v.Clone()
	}
	return out
}

// Snapshot returns a copy-on-write snapshot of the state in O(vars)
// time, sharing all composite storage with s. Both the snapshot's and
// s's composite bindings are marked shared; any later write through a
// flag-honouring path (the interpreter's indexed assignment, Owned)
// copies the touched level first, so neither side can observe the
// other's mutations.
//
// Unlike Clone, a Snapshot is NOT isolated against direct Go-level
// mutation of nested storage (st[k].List[i] = x) that bypasses the
// copy-on-write machinery; use Clone when handing values to code
// outside the platform's write paths.
func (s State) Snapshot() State {
	out := make(State, len(s))
	for k, v := range s {
		if v.Kind == KindList || v.Kind == KindMap {
			v.shared = true
			s[k] = v
		}
		out[k] = v
	}
	return out
}

// Diff returns a human-readable description of the variables on which
// the two states differ, in sorted order. It is used to build fraud
// evidence (the example mechanism "is able to present the complete
// state of an attacked agent", paper §5.1).
func (s State) Diff(o State) []string {
	seen := make(map[string]bool, len(s)+len(o))
	var names []string
	for k := range s {
		seen[k] = true
		names = append(names, k)
	}
	for k := range o {
		if !seen[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var out []string
	for _, k := range names {
		sv, sOK := s[k]
		ov, oOK := o[k]
		switch {
		case !sOK:
			out = append(out, fmt.Sprintf("%s: <absent> != %s", k, ov))
		case !oOK:
			out = append(out, fmt.Sprintf("%s: %s != <absent>", k, sv))
		case !sv.Equal(ov):
			out = append(out, fmt.Sprintf("%s: %s != %s", k, sv, ov))
		}
	}
	return out
}
