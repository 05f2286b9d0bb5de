package metric

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestNewLabelsSorted(t *testing.T) {
	ls := NewLabels("node", "n3", "cluster", "vdc", "rack", "r1")
	if !sort.SliceIsSorted(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key }) {
		t.Fatalf("labels not sorted: %v", ls)
	}
	if got := ls.String(); got != "{cluster=vdc,node=n3,rack=r1}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestNewLabelsOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd argument count")
		}
	}()
	NewLabels("only-key")
}

func TestLabelsGet(t *testing.T) {
	ls := NewLabels("a", "1", "b", "2")
	if v, ok := ls.Get("a"); !ok || v != "1" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	if _, ok := ls.Get("missing"); ok {
		t.Fatal("Get(missing) should report absent")
	}
}

func TestLabelsWith(t *testing.T) {
	ls := NewLabels("b", "2", "d", "4")
	cases := []struct {
		key, val string
		want     string
	}{
		{"a", "1", "{a=1,b=2,d=4}"},
		{"b", "9", "{b=9,d=4}"},
		{"c", "3", "{b=2,c=3,d=4}"},
		{"e", "5", "{b=2,d=4,e=5}"},
	}
	for _, c := range cases {
		if got := ls.With(c.key, c.val).String(); got != c.want {
			t.Errorf("With(%s,%s) = %s, want %s", c.key, c.val, got, c.want)
		}
	}
	// Original must be unchanged.
	if ls.String() != "{b=2,d=4}" {
		t.Fatalf("With mutated receiver: %s", ls)
	}
}

func TestLabelsMatches(t *testing.T) {
	ls := NewLabels("node", "n1", "rack", "r1", "cluster", "vdc")
	if !ls.Matches(NewLabels("node", "n1")) {
		t.Error("partial selector should match")
	}
	if !ls.Matches(Labels{}) {
		t.Error("empty selector should match everything")
	}
	if ls.Matches(NewLabels("node", "n2")) {
		t.Error("wrong value should not match")
	}
	if ls.Matches(NewLabels("zone", "z1")) {
		t.Error("absent key should not match")
	}
}

func TestLabelsEqual(t *testing.T) {
	a := NewLabels("x", "1", "y", "2")
	b := NewLabels("y", "2", "x", "1")
	if !a.Equal(b) {
		t.Error("order-independent construction should compare equal")
	}
	if a.Equal(NewLabels("x", "1")) {
		t.Error("different lengths must not be equal")
	}
}

func TestKindString(t *testing.T) {
	if Gauge.String() != "gauge" || Counter.String() != "counter" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

// Property: With never breaks sortedness and always makes Get succeed.
func TestLabelsWithProperty(t *testing.T) {
	f := func(keys []string, k string) bool {
		kv := make([]string, 0, len(keys)*2)
		for _, key := range keys {
			kv = append(kv, key, "v")
		}
		ls := NewLabels(kv...)
		out := ls.With(k, "new")
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i].Key < out[j].Key }) {
			return false
		}
		v, ok := out.Get(k)
		return ok && v == "new"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
