package dataflow

import "testing"

// cell mirrors the verifier's abstract value: a kind and a symbol.
type cell struct {
	k   uint8
	sym int32
}

func joinCell(a, b cell) cell {
	if a == b {
		return a
	}
	return cell{k: 9}
}

// sharedChunks counts the chunks a and b hold in common.
func sharedChunks(a, b *Cells[cell]) int {
	n := 0
	for k := range a.chunks {
		if a.chunks[k] == b.chunks[k] {
			n++
		}
	}
	return n
}

func TestCellsCloneSharesEveryChunk(t *testing.T) {
	a := NewCells(200, cell{k: 1})
	a.Set(70, cell{k: 2, sym: 7}) // give a a chunk of its own
	b := a.Clone()
	if got, want := sharedChunks(&a, &b), len(a.chunks); got != want {
		t.Fatalf("clone shares %d of %d chunks", got, want)
	}
	for i := 0; i < a.n; i++ {
		if a.Get(i) != b.Get(i) {
			t.Fatalf("cell %d: clone %v, original %v", i, b.Get(i), a.Get(i))
		}
	}
}

func TestCellsWriteCopiesOneChunk(t *testing.T) {
	a := NewCells(200, cell{k: 1})
	b := a.Clone()
	b.Set(130, cell{k: 3, sym: 1})
	if got, want := sharedChunks(&a, &b), len(a.chunks)-1; got != want {
		t.Fatalf("after one write the two share %d chunks, want %d", got, want)
	}
	if a.chunks[2] == b.chunks[2] {
		t.Fatalf("the written chunk is still shared")
	}
	if a.Get(130) != (cell{k: 1}) || b.Get(130) != (cell{k: 3, sym: 1}) {
		t.Fatalf("write leaked: original %v, clone %v", a.Get(130), b.Get(130))
	}
	// A second write to the now-owned chunk copies nothing.
	owned := b.chunks[2]
	b.Set(131, cell{k: 3, sym: 2})
	if b.chunks[2] != owned {
		t.Fatalf("a write to an owned chunk copied it")
	}
}

func TestCellsJoinSkipsSharedChunks(t *testing.T) {
	base := NewCells(200, cell{k: 1})
	base.Set(5, cell{k: 2}) // own chunk 0
	dst := base.Clone()
	src := base.Clone()
	src.Set(10, cell{k: 4}) // src now owns its own chunk 0
	before := append([]*cellChunk[cell](nil), dst.chunks...)
	calls := 0
	changed := dst.JoinFrom(&src, func(a, b cell) cell { calls++; return joinCell(a, b) })
	if !changed {
		t.Fatalf("join of a differing cell reported no change")
	}
	if calls != len(src.chunks[0].v) {
		t.Fatalf("join visited %d cells, want only chunk 0's %d", calls, len(src.chunks[0].v))
	}
	for k := 1; k < len(before); k++ {
		if dst.chunks[k] != before[k] {
			t.Fatalf("join replaced shared chunk %d", k)
		}
	}
	if dst.Get(10) != (cell{k: 9}) {
		t.Fatalf("joined cell %v", dst.Get(10))
	}
	if src.Get(10) != (cell{k: 4}) || base.Get(10) != (cell{k: 1}) {
		t.Fatalf("join wrote through a shared chunk: src %v base %v", src.Get(10), base.Get(10))
	}
}
