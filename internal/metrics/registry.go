package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a family for exposition.
type Kind int

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// child is one labeled time series of a family.
type child struct {
	labelValues []string
	cell        any // *Counter, *Gauge, or GaugeFunc
}

// family is a named group of same-kind cells distinguished by label
// values.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	children   map[string]*child // keyed by joined label values
}

// Registry holds metric families and hands out (or attaches) their
// cells. The zero value is not usable; call NewRegistry. A nil
// *Registry is accepted by every method as "metrics disabled": getters
// return free-floating cells, so call sites need no guards.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// splitPairs validates alternating name/value label pairs.
func splitPairs(labelPairs []string) (names, values []string) {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("metrics: odd label pairs %q", labelPairs))
	}
	for i := 0; i < len(labelPairs); i += 2 {
		names = append(names, sanitizeLabelName(labelPairs[i]))
		values = append(values, labelPairs[i+1])
	}
	return names, values
}

// familyFor returns the family under the sanitized name, creating it on
// first use. Kind or label-name disagreement across uses of one name is
// a programming error and panics.
func (r *Registry) familyFor(name, help string, kind Kind, labelNames []string) *family {
	sname := sanitizeName(name)
	f, ok := r.families[sname]
	if !ok {
		f = &family{
			name:       sname,
			help:       help,
			kind:       kind,
			labelNames: labelNames,
			children:   map[string]*child{},
		}
		r.families[sname] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", sname, f.kind, kind))
	}
	if strings.Join(f.labelNames, ",") != strings.Join(labelNames, ",") {
		panic(fmt.Sprintf("metrics: %s registered with labels %v, requested with %v", sname, f.labelNames, labelNames))
	}
	return f
}

// get returns the cell for the label values, creating it with mk when
// absent.
func (r *Registry) get(name, help string, kind Kind, labelPairs []string, mk func() any) any {
	names, values := splitPairs(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kind, names)
	key := strings.Join(values, "\x00")
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: values, cell: mk()}
		f.children[key] = c
	}
	return c.cell
}

// Counter returns the counter cell registered under name with the given
// alternating label name/value pairs, creating the family and the cell
// on first use. Repeated calls with the same name and labels return the
// same cell, so concurrent writers share one accounting.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	c, ok := r.get(name, help, KindCounter, labelPairs, func() any { return &Counter{} }).(*Counter)
	if !ok {
		panic(fmt.Sprintf("metrics: %s is not a counter", name))
	}
	return c
}

// Gauge is the gauge analogue of Counter.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	g, ok := r.get(name, help, KindGauge, labelPairs, func() any { return &Gauge{} }).(*Gauge)
	if !ok {
		panic(fmt.Sprintf("metrics: %s is not a gauge", name))
	}
	return g
}

// Attach registers an existing cell — a *Counter, *Gauge, or GaugeFunc —
// under name with the given label pairs. This is how a
// layer that owns its counters (the disk device, the buffer pool)
// exports them without indirection: the registry holds the same cell
// the hot path updates. Attaching over an existing series replaces it,
// so re-instrumenting a cached component is idempotent. A nil registry
// ignores the attach.
func (r *Registry) Attach(name, help string, cell any, labelPairs ...string) {
	if r == nil {
		return
	}
	var kind Kind
	switch cell.(type) {
	case *Counter:
		kind = KindCounter
	case *Gauge, GaugeFunc:
		kind = KindGauge
	default:
		panic(fmt.Sprintf("metrics: cannot attach %T", cell))
	}
	names, values := splitPairs(labelPairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, kind, names)
	f.children[strings.Join(values, "\x00")] = &child{labelValues: values, cell: cell}
}

// sortedFamilies snapshots the family list in name order, and each
// family's children in label-value order, for deterministic exposition.
// Caller must hold r.mu.
func (r *Registry) sortedFamilies() []*family {
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns the family's children in label-value order.
func (f *family) sortedChildren() []*child {
	kids := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		kids = append(kids, c)
	}
	sort.Slice(kids, func(i, j int) bool {
		return strings.Join(kids[i].labelValues, "\x00") < strings.Join(kids[j].labelValues, "\x00")
	})
	return kids
}

// cellValue reads the scalar value of a counter/gauge cell.
func cellValue(cell any) int64 {
	switch v := cell.(type) {
	case *Counter:
		return v.Value()
	case *Gauge:
		return v.Value()
	case GaugeFunc:
		return v()
	default:
		return 0
	}
}
