package graph

import (
	"container/heap"
	"math/rand"
	"testing"
)

type tieItem struct {
	key float64
	id  int
}

// tieHeap is a container/heap adapter ordered by key alone, as the
// Dijkstra and maze heaps were.
type tieHeap []tieItem

func (h tieHeap) Len() int           { return len(h) }
func (h tieHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h tieHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *tieHeap) Push(x any)        { *h = append(*h, x.(tieItem)) }
func (h *tieHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestHeapMatchesContainerHeap drives container/heap and Heap through
// one random sequence of pushes and pops over keys drawn from a handful
// of values, so most comparisons tie. The elements carry distinct ids,
// and the two pop sequences must agree id for id: a heap that orders
// ties differently would reorder Dijkstra's and the maze router's
// equal-cost pops.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := &tieHeap{}
		h := NewHeap(func(a, b tieItem) bool { return a.key < b.key })
		for step, id := 0, 0; step < 5000; step++ {
			if ref.Len() == 0 || rng.Intn(3) > 0 {
				it := tieItem{key: float64(rng.Intn(4)), id: id}
				id++
				heap.Push(ref, it)
				h.Push(it)
				continue
			}
			want := heap.Pop(ref).(tieItem)
			if got := h.Pop(); got != want {
				t.Fatalf("seed %d step %d: popped %v, container/heap popped %v", seed, step, got, want)
			}
		}
		for ref.Len() > 0 {
			want := heap.Pop(ref).(tieItem)
			if got := h.Pop(); got != want {
				t.Fatalf("seed %d drain: popped %v, container/heap popped %v", seed, got, want)
			}
		}
		if h.Len() != 0 {
			t.Fatalf("seed %d: %d items left", seed, h.Len())
		}
	}
}
