package assembly

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"revelation/internal/expr"
	"revelation/internal/object"
)

func jsonCatalog(t testing.TB) *object.Catalog {
	t.Helper()
	cat := object.NewCatalog()
	cat.MustDefine(&object.Class{Name: "Person", NumInts: 2, NumRefs: 2})
	cat.MustDefine(&object.Class{Name: "Residence", NumInts: 2, NumRefs: 0})
	return cat
}

func jsonTemplate(cat *object.Catalog) *Template {
	person, _ := cat.ByName("Person")
	res, _ := cat.ByName("Residence")
	return &Template{
		Name: "Person", Class: person.ID, RefField: -1, Required: true,
		Children: []*Template{
			{Name: "Father", Class: person.ID, RefField: 0, Required: true,
				Shared: true, SharingDegree: 0.5},
			{Name: "Residence", Class: res.ID, RefField: 1, Required: true,
				Pred: expr.IntCmp{Field: 1, Op: expr.EQ, Value: 13, Sel: 0.02}},
		},
	}
}

func TestTemplateJSONRoundTrip(t *testing.T) {
	cat := jsonCatalog(t)
	orig := jsonTemplate(cat)
	data, err := MarshalTemplateJSON(orig, cat)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTemplateJSON(data, cat)
	if err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if back.String() != orig.String() {
		t.Errorf("round trip changed template:\n%s\nvs\n%s", back, orig)
	}
	if back.Nodes() != 3 || !back.Children[0].Shared {
		t.Errorf("structure lost: %+v", back)
	}
	p, ok := back.Children[1].Pred.(expr.IntCmp)
	if !ok || p.Value != 13 || p.Sel != 0.02 || p.Op != expr.EQ {
		t.Errorf("predicate lost: %+v", back.Children[1].Pred)
	}
}

func TestTemplateJSONRangePredicate(t *testing.T) {
	cat := jsonCatalog(t)
	tmpl := jsonTemplate(cat)
	tmpl.Children[1].Pred = expr.IntRange{Field: 0, Lo: 5, Hi: 9, Sel: 0.1}
	data, err := MarshalTemplateJSON(tmpl, cat)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalTemplateJSON(data, cat)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := back.Children[1].Pred.(expr.IntRange)
	if !ok || r.Lo != 5 || r.Hi != 9 {
		t.Errorf("range predicate lost: %+v", back.Children[1].Pred)
	}
}

func TestTemplateJSONRejectsUnserializablePredicate(t *testing.T) {
	cat := jsonCatalog(t)
	tmpl := jsonTemplate(cat)
	tmpl.Children[1].Pred = expr.Func{Name: "custom", Fn: func(*object.Object) bool { return true }}
	if _, err := MarshalTemplateJSON(tmpl, cat); err == nil {
		t.Error("Func predicate serialized")
	}
}

func TestTemplateJSONErrors(t *testing.T) {
	cat := jsonCatalog(t)
	cases := map[string]string{
		"bad json":             `{`,
		"bad class":            `{"name":"x","refField":-1,"class":"Nope"}`,
		"bad op":               `{"name":"x","refField":-1,"pred":{"field":0,"op":"~~"}}`,
		"dup fields":           `{"name":"x","refField":-1,"children":[{"name":"a","refField":0},{"name":"b","refField":0}]}`,
		"neg field":            `{"name":"x","refField":-1,"children":[{"name":"a","refField":-2}]}`,
		"bad classid":          `{"name":"x","refField":-1,"class":"#zzz"}`,
		"classid and junk":     `{"name":"x","refField":-1,"class":"#1x"}`,
		"classid out of range": `{"name":"x","refField":-1,"class":"#65536"}`,
		"classid not defined":  `{"name":"x","refField":-1,"class":"#9"}`,
		"null child":           `{"name":"x","refField":-1,"children":[null]}`,
	}
	for name, data := range cases {
		if _, err := UnmarshalTemplateJSON([]byte(data), cat); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTemplateJSONNumericClassTags(t *testing.T) {
	tmpl := &Template{Name: "n", Class: 7, RefField: -1}
	data, err := MarshalTemplateJSON(tmpl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"#7"`) {
		t.Errorf("numeric tag missing:\n%s", data)
	}
	back, err := UnmarshalTemplateJSON(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Class != 7 {
		t.Errorf("class = %d", back.Class)
	}
}

func TestTemplateJSONDrivesAssembly(t *testing.T) {
	// End to end: serialize the store's template, reload it, assemble.
	s, tmpl, roots := buildChainStore(t, 5)
	data, err := MarshalTemplateJSON(tmpl, s.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalTemplateJSON(data, s.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := assembleAll(t, s, loaded, roots, Options{Window: 3, Scheduler: Elevator})
	if len(out) != 5 {
		t.Fatalf("assembled %d", len(out))
	}
	for _, inst := range out {
		checkAssembled(t, s, inst)
	}
}

// FuzzTemplateJSON hardens the template loader, which the command-line
// tools point at files: arbitrary bytes never panic it, with a catalog
// or without, and whatever it accepts marshals and parses back to the
// same template.
func FuzzTemplateJSON(f *testing.F) {
	cat := jsonCatalog(f)
	good, err := MarshalTemplateJSON(jsonTemplate(cat), cat)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(good),
		`null`,
		`{"name":"x","refField":-1,"class":"#2","pred":{"field":1,"op":"range","lo":-3,"hi":9,"sel":0.5}}`,
		`{"name":"x","refField":-1,"class":"#7","children":[{"name":"a","refField":0,"pred":{"op":"=="}}]}`,
		`{"children":[null]}`,
		`{"class":"#"}`,
		`{"class":"#99999999999999999999"}`,
		`{"class":"#-1"}`,
		`{"sharingDegree":1e999}`,
		`{"children":[{"children":[{"children":[{"refField":3}]}]}]}`,
	} {
		f.Add([]byte(seed), true)
		f.Add([]byte(seed), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, withCatalog bool) {
		c := cat
		if !withCatalog {
			c = nil
		}
		first, err := UnmarshalTemplateJSON(data, c)
		if err != nil {
			return
		}
		out, err := MarshalTemplateJSON(first, c)
		if err != nil {
			t.Fatalf("accepted %q, then refused to marshal it: %v", data, err)
		}
		second, err := UnmarshalTemplateJSON(out, c)
		if err != nil {
			t.Fatalf("accepted %q, marshalled it as %s, then refused that: %v", data, out, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("%q parses as\n%s\nbut comes back as\n%s", data, first, second)
		}
		if again, err := MarshalTemplateJSON(second, c); err != nil || !bytes.Equal(out, again) {
			t.Fatalf("%q marshals as %s, then as %s (%v)", data, out, again, err)
		}
	})
}
