package vtime

// queue is a FIFO that dequeues by advancing a head index instead of
// reslicing, so the backing array keeps its capacity and a steady stream
// of push/pop pairs allocates nothing. The kernel's run queue, a Chan's
// buffer and its waiter queues are queues.
type queue[T any] struct {
	items []T // items[head:] are queued, oldest first
	head  int
}

func (q *queue[T]) len() int { return len(q.items) - q.head }

// push appends v, first compacting the consumed front away when the
// backing array is full and at least half of it is consumed.
func (q *queue[T]) push(v T) {
	if len(q.items) == cap(q.items) && q.head > 0 && q.head >= len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the oldest value; the queue must not be empty.
func (q *queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}

// delete removes the i-th queued value (0 is the oldest), keeping the
// order of the rest.
func (q *queue[T]) delete(i int) {
	i += q.head
	copy(q.items[i:], q.items[i+1:])
	var zero T
	q.items[len(q.items)-1] = zero
	if q.items = q.items[:len(q.items)-1]; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
}
