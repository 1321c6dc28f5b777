package compiler

import (
	"repro/internal/analysis"
	"repro/internal/vm"
)

// Hooks for the tests.

// ColdPrefixes empties the prelude prefix cache.
func ColdPrefixes() { prefixes = newPrefixCache() }

// SameProgram is sameProgram.
var SameProgram = sameProgram

// len is the number of keys the cache holds.
func (c *prefixCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CheckLinked runs Compile's post-passes under opts over p, a program
// Compile linked after the prelude under the same options, reusing the
// prelude's verdicts as Compile does.
func CheckLinked(p *vm.Program, opts Options) (*analysis.Report, error) {
	e, err := prefixes.get(opts.Options)
	if err != nil {
		return nil, err
	}
	return check(p, e.prelude(), opts)
}
