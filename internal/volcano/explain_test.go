package volcano

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExplainRendersTree(t *testing.T) {
	plan := NewFilter(
		NewProject(NewPointerJoin(intSource(1, 2), nil, 0, NaivePointer),
			func(it Item) (Item, error) { return it, nil }),
		func(Item) (bool, error) { return true, nil })
	out := Explain(plan)
	for _, want := range []string{"filter", "project", "pointer-join(field 0, naive)", "slice(2 items)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Indentation increases down the tree.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("Explain lines = %d:\n%s", len(lines), out)
	}
	for i := 1; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], strings.Repeat("  ", i)) {
			t.Errorf("line %d not indented: %q", i, lines[i])
		}
	}
}

func TestExplainJoinsAndExchange(t *testing.T) {
	e := NewExchange(3, func(int) (Iterator, error) { return intSource(), nil })
	if !strings.Contains(Explain(e), "exchange(degree 3)") {
		t.Errorf("exchange plan:\n%s", Explain(e))
	}
	pj := NewPointerJoin(intSource(), nil, 2, SortedPointer)
	if !strings.Contains(Explain(pj), "pointer-join(field 2, sorted)") {
		t.Errorf("pointer join plan:\n%s", Explain(pj))
	}
}

// Property: filter+project over any input preserves exactly the
// matching elements in order.
func TestFilterProjectProperty(t *testing.T) {
	f := func(vals []int32) bool {
		items := make([]Item, len(vals))
		for i, v := range vals {
			items[i] = int(v)
		}
		plan := NewProject(
			NewFilter(NewSlice(items), func(it Item) (bool, error) {
				return it.(int)%2 == 0, nil
			}),
			func(it Item) (Item, error) { return it.(int) + 1, nil })
		got, err := Drain(nil, plan)
		if err != nil {
			return false
		}
		var want []int
		for _, v := range vals {
			if int(v)%2 == 0 {
				want = append(want, int(v)+1)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].(int) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
