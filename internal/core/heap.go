package core

// pqueue is a small generic binary min-heap, replacing the pre-generics
// container/heap testHeap (interface{} Push/Pop boxing on the engine's
// hot test-scheduling path). The ordering function is fixed at
// construction; Push/Pop run the usual sift-up/sift-down.
type pqueue[T any] struct {
	less  func(a, b T) bool
	items []T
}

// newPQueue builds an empty heap ordered by less.
func newPQueue[T any](less func(a, b T) bool) pqueue[T] {
	return pqueue[T]{less: less}
}

// Len returns the number of queued items.
func (q *pqueue[T]) Len() int { return len(q.items) }

// Peek returns the minimum item without removing it. It must not be
// called on an empty queue.
func (q *pqueue[T]) Peek() T { return q.items[0] }

// Push inserts v.
func (q *pqueue[T]) Push(v T) {
	q.items = append(q.items, v)
	// Sift up.
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.items[i], q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

// Pop removes and returns the minimum item. It must not be called on
// an empty queue.
func (q *pqueue[T]) Pop() T {
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	var zero T
	q.items[last] = zero // release references held by the slot
	q.items = q.items[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(q.items) && q.less(q.items[l], q.items[smallest]) {
			smallest = l
		}
		if r < len(q.items) && q.less(q.items[r], q.items[smallest]) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
