package value

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindNull, "null"},
		{KindInt, "int"},
		{KindString, "string"},
		{KindBool, "bool"},
		{KindList, "list"},
		{KindMap, "map"},
		{Kind(99), "kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestConstructorsAndKinds(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		kind Kind
	}{
		{"null", Null(), KindNull},
		{"int", Int(42), KindInt},
		{"str", Str("x"), KindString},
		{"bool", Bool(true), KindBool},
		{"list", List(Int(1)), KindList},
		{"map", Map(map[string]Value{"a": Int(1)}), KindMap},
	}
	for _, tt := range tests {
		if tt.v.Kind != tt.kind {
			t.Errorf("%s: kind = %v, want %v", tt.name, tt.v.Kind, tt.kind)
		}
	}
}

func TestMapNilBecomesEmpty(t *testing.T) {
	m := Map(nil)
	if m.Map == nil {
		t.Fatal("Map(nil) should allocate an empty map")
	}
}

func TestIsNull(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null().IsNull() = false")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value should be null")
	}
	if Int(0).IsNull() {
		t.Error("Int(0).IsNull() = true")
	}
}

func TestTruthy(t *testing.T) {
	tests := []struct {
		name string
		v    Value
		want bool
	}{
		{"null", Null(), false},
		{"zero int", Int(0), false},
		{"nonzero int", Int(-3), true},
		{"empty string", Str(""), false},
		{"string", Str("a"), true},
		{"false", Bool(false), false},
		{"true", Bool(true), true},
		{"empty list", List(), false},
		{"list", List(Int(0)), true},
		{"empty map", Map(nil), false},
		{"map", Map(map[string]Value{"k": Null()}), true},
	}
	for _, tt := range tests {
		if got := tt.v.Truthy(); got != tt.want {
			t.Errorf("%s: Truthy() = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := Map(map[string]Value{
		"inner": List(Int(1), Int(2)),
	})
	cl := orig.Clone()
	cl.Map["inner"].List[0] = Int(99)
	cl.Map["added"] = Int(7)
	if orig.Map["inner"].List[0].Int != 1 {
		t.Error("mutating clone's nested list affected original")
	}
	if _, ok := orig.Map["added"]; ok {
		t.Error("mutating clone's map affected original")
	}
}

func TestEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"null==null", Null(), Null(), true},
		{"null==zero", Null(), Value{}, true},
		{"int eq", Int(5), Int(5), true},
		{"int ne", Int(5), Int(6), false},
		{"kind mismatch", Int(1), Str("1"), false},
		{"str eq", Str("ab"), Str("ab"), true},
		{"bool ne", Bool(true), Bool(false), false},
		{"list eq", List(Int(1), Str("x")), List(Int(1), Str("x")), true},
		{"list len ne", List(Int(1)), List(Int(1), Int(2)), false},
		{"list elem ne", List(Int(1)), List(Int(2)), false},
		{"map eq", Map(map[string]Value{"a": Int(1)}), Map(map[string]Value{"a": Int(1)}), true},
		{"map key ne", Map(map[string]Value{"a": Int(1)}), Map(map[string]Value{"b": Int(1)}), false},
		{"map val ne", Map(map[string]Value{"a": Int(1)}), Map(map[string]Value{"a": Int(2)}), false},
		{"map size ne", Map(map[string]Value{"a": Int(1)}), Map(map[string]Value{"a": Int(1), "b": Int(2)}), false},
		{"nested", List(Map(map[string]Value{"a": List(Int(1))})), List(Map(map[string]Value{"a": List(Int(1))})), true},
	}
	for _, tt := range tests {
		if got := tt.a.Equal(tt.b); got != tt.want {
			t.Errorf("%s: Equal = %v, want %v", tt.name, got, tt.want)
		}
		if got := tt.b.Equal(tt.a); got != tt.want {
			t.Errorf("%s (reversed): Equal = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestCompareTotalOrder(t *testing.T) {
	// An ordered sequence of values; every pair (i<j) must compare < 0.
	ordered := []Value{
		Null(),
		Int(-10), Int(0), Int(3),
		Str(""), Str("a"), Str("ab"), Str("b"),
		Bool(false), Bool(true),
		List(), List(Int(1)), List(Int(1), Int(0)), List(Int(2)),
		Map(nil),
		Map(map[string]Value{"a": Int(1)}),
		Map(map[string]Value{"a": Int(2)}),
		Map(map[string]Value{"b": Int(0)}),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%s, %s) = %d, want < 0", ordered[i], ordered[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%s, %s) = %d, want > 0", ordered[i], ordered[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%s, %s) = %d, want 0", ordered[i], ordered[j], got)
			}
		}
	}
}

func TestCompareConsistentWithEqual(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return (va.Compare(vb) == 0) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Int(-7), "-7"},
		{Str(`a"b`), `"a\"b"`},
		{Bool(true), "true"},
		{List(Int(1), Str("x")), `[1, "x"]`},
		{Map(map[string]Value{"b": Int(2), "a": Int(1)}), `{"a": 1, "b": 2}`},
		{List(), "[]"},
		{Map(nil), "{}"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %s, want %s", got, tt.want)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]Value{"z": Null(), "a": Null(), "m": Null()}
	got := SortedKeys(m)
	if !sort.StringsAreSorted(got) {
		t.Errorf("SortedKeys not sorted: %v", got)
	}
	if len(got) != 3 {
		t.Errorf("SortedKeys len = %d, want 3", len(got))
	}
}

func TestStateCloneEqual(t *testing.T) {
	s := State{
		"money": Int(100),
		"items": List(Str("book")),
	}
	cl := s.Clone()
	if len(s.Diff(cl)) > 0 {
		t.Fatal("clone not equal to original")
	}
	cl["items"].List[0] = Str("dvd")
	if len(s.Diff(cl)) == 0 {
		t.Fatal("deep mutation of clone should break equality")
	}
	if s["items"].List[0].Str != "book" {
		t.Fatal("clone shares storage with original")
	}
}

func TestStateDiff(t *testing.T) {
	a := State{"x": Int(1), "y": Int(2), "only_a": Str("s")}
	b := State{"x": Int(1), "y": Int(3), "only_b": Str("t")}
	diff := a.Diff(b)
	if len(diff) != 3 {
		t.Fatalf("Diff returned %d entries, want 3: %v", len(diff), diff)
	}
	// Sorted order: only_a, only_b, y.
	wantSubstr := []string{"only_a", "only_b", "y: 2 != 3"}
	for i, w := range wantSubstr {
		if !contains(diff[i], w) {
			t.Errorf("diff[%d] = %q, want it to contain %q", i, diff[i], w)
		}
	}
}

func TestStateDiffIdentical(t *testing.T) {
	a := State{"x": Int(1)}
	if d := a.Diff(a.Clone()); len(d) != 0 {
		t.Errorf("Diff of equal states = %v, want empty", d)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// RandomValue builds a pseudo-random value of bounded depth. Exported to
// sibling test packages via value_testutil.go would be overkill; tests
// that need it redefine locally.
func randomValue(r *rand.Rand, depth int) Value {
	kinds := 4
	if depth > 0 {
		kinds = 6
	}
	switch r.Intn(kinds) {
	case 0:
		return Null()
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		buf := make([]byte, r.Intn(12))
		for i := range buf {
			buf[i] = byte('a' + r.Intn(26))
		}
		return Str(string(buf))
	case 3:
		return Bool(r.Intn(2) == 0)
	case 4:
		n := r.Intn(4)
		elems := make([]Value, n)
		for i := range elems {
			elems[i] = randomValue(r, depth-1)
		}
		return List(elems...)
	default:
		n := r.Intn(4)
		m := make(map[string]Value, n)
		for i := 0; i < n; i++ {
			m[string(rune('a'+r.Intn(26)))] = randomValue(r, depth-1)
		}
		return Map(m)
	}
}

func TestPropertyCloneEqualsOriginal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		v := randomValue(r, 3)
		if !v.Equal(v.Clone()) {
			t.Fatalf("Clone() != original for %s", v)
		}
		if v.Compare(v.Clone()) != 0 {
			t.Fatalf("Compare(clone) != 0 for %s", v)
		}
	}
}

func TestPropertyCompareAntisymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		a, b := randomValue(r, 2), randomValue(r, 2)
		ab, ba := a.Compare(b), b.Compare(a)
		if (ab < 0) != (ba > 0) || (ab == 0) != (ba == 0) {
			t.Fatalf("Compare not antisymmetric: %s vs %s: %d, %d", a, b, ab, ba)
		}
	}
}
