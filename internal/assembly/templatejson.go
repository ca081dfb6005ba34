package assembly

import (
	"encoding/json"
	"fmt"
	"strconv"

	"revelation/internal/expr"
	"revelation/internal/object"
)

// templateJSON is the serialized template form used by the command-
// line tools: structure, annotations, and a restricted predicate
// language (integer comparisons and ranges — the algebraically
// expressible predicates; residual Go predicates don't serialize).
type templateJSON struct {
	Name          string          `json:"name"`
	Class         string          `json:"class,omitempty"`
	RefField      int             `json:"refField"`
	Required      bool            `json:"required,omitempty"`
	Shared        bool            `json:"shared,omitempty"`
	SharingDegree float64         `json:"sharingDegree,omitempty"`
	Pred          *predJSON       `json:"pred,omitempty"`
	Children      []*templateJSON `json:"children,omitempty"`
}

// predJSON serializes the expressible predicate subset.
type predJSON struct {
	// Field is the integer attribute index.
	Field int `json:"field"`
	// Op is one of "=", "!=", "<", "<=", ">", ">=", "range".
	Op string `json:"op"`
	// Value is the comparison constant ("range" uses Lo/Hi instead).
	Value int32 `json:"value,omitempty"`
	// Lo and Hi bound a "range" predicate inclusively.
	Lo int32 `json:"lo,omitempty"`
	Hi int32 `json:"hi,omitempty"`
	// Sel is the selectivity estimate.
	Sel float64 `json:"sel,omitempty"`
}

var opNames = map[string]expr.CmpOp{
	"=": expr.EQ, "==": expr.EQ,
	"!=": expr.NE,
	"<":  expr.LT, "<=": expr.LE,
	">": expr.GT, ">=": expr.GE,
}

// MarshalTemplateJSON serializes a template. Classes are emitted by
// name (resolved through cat; a nil catalog emits numeric ids).
// Predicates outside the expressible subset (IntCmp, IntRange) fail
// with a descriptive error.
func MarshalTemplateJSON(t *Template, cat *object.Catalog) ([]byte, error) {
	j, err := templateToJSON(t, cat)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(j, "", "  ")
}

func templateToJSON(t *Template, cat *object.Catalog) (*templateJSON, error) {
	j := &templateJSON{
		Name:          t.Name,
		RefField:      t.RefField,
		Required:      t.Required,
		Shared:        t.Shared,
		SharingDegree: t.SharingDegree,
	}
	if t.Class != 0 {
		if cat != nil {
			cls, ok := cat.ByID(t.Class)
			if !ok {
				return nil, fmt.Errorf("assembly: class %d of node %q not in catalog", t.Class, t.Name)
			}
			j.Class = cls.Name
		} else {
			j.Class = fmt.Sprintf("#%d", t.Class)
		}
	}
	switch p := t.Pred.(type) {
	case nil:
	case expr.IntCmp:
		j.Pred = &predJSON{Field: p.Field, Op: p.Op.String(), Value: p.Value, Sel: p.Sel}
	case expr.IntRange:
		j.Pred = &predJSON{Field: p.Field, Op: "range", Lo: p.Lo, Hi: p.Hi, Sel: p.Sel}
	default:
		return nil, fmt.Errorf("assembly: predicate %s on node %q is not serializable", t.Pred, t.Name)
	}
	for _, c := range t.Children {
		cj, err := templateToJSON(c, cat)
		if err != nil {
			return nil, err
		}
		j.Children = append(j.Children, cj)
	}
	return j, nil
}

// UnmarshalTemplateJSON parses a serialized template, resolving class
// names through cat (nil allows only class-free and "#<id>" nodes; with
// a catalog an "#<id>" must be a class it holds, or 0 for none). The
// result is validated, and marshals back to what it was parsed from.
func UnmarshalTemplateJSON(data []byte, cat *object.Catalog) (*Template, error) {
	var j templateJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("assembly: parse template: %w", err)
	}
	t, err := templateFromJSON(&j, cat)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(cat); err != nil {
		return nil, err
	}
	return t, nil
}

func templateFromJSON(j *templateJSON, cat *object.Catalog) (*Template, error) {
	if j == nil {
		return nil, fmt.Errorf("assembly: null template node")
	}
	t := &Template{
		Name:          j.Name,
		RefField:      j.RefField,
		Required:      j.Required,
		Shared:        j.Shared,
		SharingDegree: j.SharingDegree,
	}
	if j.Class != "" {
		if j.Class[0] == '#' {
			id, err := strconv.ParseUint(j.Class[1:], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("assembly: bad class tag %q", j.Class)
			}
			t.Class = object.ClassID(id)
			if cat != nil && id != 0 {
				if _, ok := cat.ByID(t.Class); !ok {
					return nil, fmt.Errorf("assembly: unknown class %q", j.Class)
				}
			}
		} else {
			if cat == nil {
				return nil, fmt.Errorf("assembly: class %q needs a catalog", j.Class)
			}
			cls, ok := cat.ByName(j.Class)
			if !ok {
				return nil, fmt.Errorf("assembly: unknown class %q", j.Class)
			}
			t.Class = cls.ID
		}
	}
	if j.Pred != nil {
		switch j.Pred.Op {
		case "range":
			t.Pred = expr.IntRange{Field: j.Pred.Field, Lo: j.Pred.Lo, Hi: j.Pred.Hi, Sel: j.Pred.Sel}
		default:
			op, ok := opNames[j.Pred.Op]
			if !ok {
				return nil, fmt.Errorf("assembly: unknown predicate op %q on node %q", j.Pred.Op, j.Name)
			}
			t.Pred = expr.IntCmp{Field: j.Pred.Field, Op: op, Value: j.Pred.Value, Sel: j.Pred.Sel}
		}
	}
	for _, cj := range j.Children {
		c, err := templateFromJSON(cj, cat)
		if err != nil {
			return nil, err
		}
		t.Children = append(t.Children, c)
	}
	return t, nil
}
