package graph

// Heap is a binary min-heap of T ordered by less. Push and Pop make the
// same comparisons and swaps, in the same order, as container/heap's
// Push and Pop over a slice, so elements that tie under less pop in the
// same sequence as they would from a container/heap adapter. Unlike the
// adapter it stores T unboxed and needs no interface conversions.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// NewHeap returns an empty heap ordered by less.
func NewHeap[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.items) }

// Reset empties the heap, keeping its backing array.
func (h *Heap[T]) Reset() { h.items = h.items[:0] }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element. The heap must not be
// empty.
func (h *Heap[T]) Pop() T {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	h.down(0, n)
	x := h.items[n]
	h.items = h.items[:n]
	return x
}

// up sifts the element at j toward the root: O(log n) steps.
// container/heap's loop also stops at the root, where (j-1)/2 == j.
func (h *Heap[T]) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !h.less(h.items[j], h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

// down sifts the element at i toward the leaves of the first n
// elements: O(log n) steps.
func (h *Heap[T]) down(i, n int) {
	for j1 := 2*i + 1; j1 < n && j1 >= 0; j1 = 2*i + 1 { // j1 < 0 after int overflow
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(h.items[j2], h.items[j1]) {
			j = j2 // right child
		}
		if !h.less(h.items[j], h.items[i]) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}
