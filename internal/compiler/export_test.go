package compiler

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
