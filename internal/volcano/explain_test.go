package volcano

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"revelation/internal/buffer"
	"revelation/internal/disk"
	"revelation/internal/expr"
)

func TestExplainRendersTree(t *testing.T) {
	s := testStore(t, 20)
	plan := NewLimit(
		NewFilter(
			NewProject(NewHeapScan(s.File, expr.IntCmp{Field: 0, Op: expr.GT, Value: 3}),
				func(it Item) (Item, error) { return it, nil }),
			func(Item) (bool, error) { return true, nil }),
		5)
	out := Explain(plan)
	for _, want := range []string{"limit(5)", "filter", "project", "heap-scan[ints[0] > 3]"} {
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
	j := NewHashJoin(intSource(1), intSource(2),
		func(it Item) (any, error) { return it, nil },
		func(it Item) (any, error) { return it, nil })
	out := Explain(j)
	if !strings.Contains(out, "hash-join") || strings.Count(out, "slice(1 items)") != 2 {
		t.Errorf("join plan:\n%s", out)
	}
	e := NewExchange(3, func(int) (Iterator, error) { return intSource(), nil })
	if !strings.Contains(Explain(e), "exchange(degree 3)") {
		t.Errorf("exchange plan:\n%s", Explain(e))
	}
	sorted := NewSort(intSource(1), nil)
	if !strings.Contains(Explain(sorted), "sort") {
		t.Error("sort plan")
	}
	pj := NewPointerJoin(intSource(), nil, 2, SortedPointer)
	if !strings.Contains(Explain(pj), "pointer-join(field 2, sorted)") {
		t.Errorf("pointer join plan:\n%s", Explain(pj))
	}
}

// Property: the external sort agrees with sort.Ints on any input.
func TestExternalSortProperty(t *testing.T) {
	f := func(vals []int16, runSize uint8) bool {
		d := disk.New(0)
		pool := buffer.New(d, 64)
		items := make([]Item, len(vals))
		want := make([]int, len(vals))
		for i, v := range vals {
			items[i] = int(v)
			want[i] = int(v)
		}
		sort.Ints(want)
		es := NewExternalSort(NewSlice(items),
			func(a, b Item) bool { return a.(int) < b.(int) },
			intCodec{}, pool, int(runSize%40)+1)
		got, err := Drain(es)
		if err != nil {
			return false
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
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
		got, err := Drain(plan)
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
