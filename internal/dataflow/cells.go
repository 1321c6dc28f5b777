package dataflow

// Cells is a fixed-length vector of lattice cells held in copy-on-write
// chunks of 64 cells. It keeps per-block states small when a
// state has a cell per frame slot and frames grow with the program:
//
//   - Clone shares every chunk: it costs one pointer per chunk, not one
//     copy per cell.
//   - Set copies at most the one chunk it writes, and only when that
//     chunk is shared.
//   - JoinFrom skips every chunk the two sides share.
//
// A chunk becomes shared (frozen) when a Clone copies its pointer and
// is never written again; a writer copies it first. So a state costs
// O(len/chunkCells) pointers plus one chunk per chunk it wrote since it
// was cloned. Copy a Cells only with Clone: plain assignment aliases
// the chunk table.
type Cells[T comparable] struct {
	n      int
	chunks []*cellChunk[T]
}

// chunkCells is the number of cells per chunk.
const chunkCells = 64

type cellChunk[T comparable] struct {
	frozen bool
	v      []T
}

// NewCells returns n cells holding fill. Every full chunk starts as one
// shared chunk, so an initial state costs O(n/chunkCells).
func NewCells[T comparable](n int, fill T) Cells[T] {
	c := Cells[T]{n: n, chunks: make([]*cellChunk[T], (n+chunkCells-1)/chunkCells)}
	var full *cellChunk[T]
	for k := range c.chunks {
		size := c.chunkLen(k)
		if size == chunkCells && full != nil {
			c.chunks[k] = full
			continue
		}
		ch := &cellChunk[T]{frozen: true, v: make([]T, size)}
		for i := range ch.v {
			ch.v[i] = fill
		}
		if size == chunkCells {
			full = ch
		}
		c.chunks[k] = ch
	}
	return c
}

func (c *Cells[T]) chunkLen(k int) int {
	if rest := c.n - k*chunkCells; rest < chunkCells {
		return rest
	}
	return chunkCells
}

// Get returns cell i.
func (c *Cells[T]) Get(i int) T { return c.chunks[i/chunkCells].v[i%chunkCells] }

// Set writes cell i, first copying its chunk if it is shared.
func (c *Cells[T]) Set(i int, v T) {
	ch := c.chunks[i/chunkCells]
	if ch.v[i%chunkCells] == v {
		return
	}
	c.writable(i / chunkCells).v[i%chunkCells] = v
}

// writable returns chunk k, copying it first if it is shared.
func (c *Cells[T]) writable(k int) *cellChunk[T] {
	ch := c.chunks[k]
	if ch.frozen {
		ch = &cellChunk[T]{v: append([]T(nil), ch.v...)}
		c.chunks[k] = ch
	}
	return ch
}

// Clone returns a copy sharing every chunk with c.
func (c *Cells[T]) Clone() Cells[T] {
	for _, ch := range c.chunks {
		ch.frozen = true
	}
	return Cells[T]{n: c.n, chunks: append([]*cellChunk[T](nil), c.chunks...)}
}

// JoinFrom sets each cell of c to join(c, src) and reports whether any
// changed. Chunks the two share are skipped; src is not modified.
func (c *Cells[T]) JoinFrom(src *Cells[T], join func(a, b T) T) bool {
	changed := false
	for k, sc := range src.chunks {
		dc := c.chunks[k]
		if dc == sc {
			continue
		}
		owned := false
		for i, a := range dc.v {
			if nv := join(a, sc.v[i]); nv != a {
				if !owned {
					dc, owned = c.writable(k), true
				}
				dc.v[i] = nv
				changed = true
			}
		}
	}
	return changed
}
