// Package bench holds the benchmark suite of the paper's evaluation
// (Table 1/Table 2): ports of the Gabriel benchmarks to the mini-Scheme
// dialect, plus four substitute "large programs" standing in for the
// paper's Compiler/DDD/Similix/SoftScheme workloads (see DESIGN.md §5),
// and the harness that regenerates every table and figure.
package bench

import (
	"fmt"
	"sort"
)

// Program is one benchmark.
type Program struct {
	Name string
	// Description mirrors Table 1's one-line descriptions.
	Description string
	// Source is the mini-Scheme program text. Its final expression's
	// value is the program result.
	Source string
	// Expect is the expected result in write notation ("" skips the
	// check).
	Expect string
	// Large marks the Table 1 "large program" substitutes; the rest are
	// Gabriel benchmarks.
	Large bool
}

var registry = map[string]*Program{}
var order []string

func register(p Program) {
	if _, dup := registry[p.Name]; dup {
		panic("bench: duplicate benchmark " + p.Name)
	}
	cp := p
	registry[p.Name] = &cp
	order = append(order, p.Name)
}

// ByName returns a registered benchmark.
func ByName(name string) (*Program, error) {
	p, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	return p, nil
}

// All returns every benchmark in registration order (large programs
// first, then the Gabriel suite, matching the paper's tables).
func All() []*Program {
	out := make([]*Program, 0, len(registry))
	for _, n := range order {
		out = append(out, registry[n])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Large != out[j].Large {
			return out[i].Large
		}
		return false
	})
	return out
}
