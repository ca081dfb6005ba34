package assembly

// Test-only exports: code that only this package's tests use lives here,
// out of the build.

import (
	"encoding/json"
	"fmt"

	"revelation/internal/expr"
	"revelation/internal/object"
)

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
