package volcano

import (
	"fmt"
	"strings"
)

// PlanNoder lets an operator describe itself for plan explanation: a
// short label plus its input operators. Operators that do not
// implement it render by their Go type.
type PlanNoder interface {
	PlanNode() (label string, inputs []Iterator)
}

// Explain renders a query plan tree rooted at it, one operator per
// line, inputs indented beneath their consumer.
func Explain(it Iterator) string {
	var b strings.Builder
	explain(&b, it, 0)
	return b.String()
}

func explain(b *strings.Builder, it Iterator, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	label, inputs := describe(it)
	b.WriteString(label)
	b.WriteString("\n")
	for _, in := range inputs {
		explain(b, in, depth+1)
	}
}

func describe(it Iterator) (string, []Iterator) {
	if p, ok := it.(PlanNoder); ok {
		return p.PlanNode()
	}
	switch v := it.(type) {
	case *Slice:
		return fmt.Sprintf("slice(%d items)", len(v.items)), nil
	case *Filter:
		return "filter", []Iterator{v.Input}
	case *Project:
		return "project", []Iterator{v.Input}
	case *PointerJoin:
		mode := "naive"
		if v.Mode == SortedPointer {
			mode = "sorted"
		}
		return fmt.Sprintf("pointer-join(field %d, %s)", v.Field, mode), []Iterator{v.Input}
	case *Exchange:
		return fmt.Sprintf("exchange(degree %d)", v.Degree), nil
	default:
		return fmt.Sprintf("%T", it), nil
	}
}
