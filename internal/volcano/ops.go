package volcano

// Filter passes through items for which Keep returns true.
type Filter struct {
	Input Iterator
	Keep  func(Item) (bool, error)
}

// NewFilter builds a filter with an arbitrary keep function.
func NewFilter(in Iterator, keep func(Item) (bool, error)) *Filter {
	return &Filter{Input: in, Keep: keep}
}

// Open implements Iterator.
func (f *Filter) Open() error { return f.Input.Open() }

// Next implements Iterator.
func (f *Filter) Next() (Item, error) {
	for {
		item, err := f.Input.Next()
		if err != nil {
			return nil, err
		}
		keep, err := f.Keep(item)
		if err != nil {
			return nil, err
		}
		if keep {
			return item, nil
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() error { return f.Input.Close() }

// Project transforms each input item with Fn (projection / map).
type Project struct {
	Input Iterator
	Fn    func(Item) (Item, error)
}

// NewProject builds a projection.
func NewProject(in Iterator, fn func(Item) (Item, error)) *Project {
	return &Project{Input: in, Fn: fn}
}

// Open implements Iterator.
func (p *Project) Open() error { return p.Input.Open() }

// Next implements Iterator.
func (p *Project) Next() (Item, error) {
	item, err := p.Input.Next()
	if err != nil {
		return nil, err
	}
	return p.Fn(item)
}

// Close implements Iterator.
func (p *Project) Close() error { return p.Input.Close() }
