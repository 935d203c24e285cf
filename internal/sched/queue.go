package sched

// fifo is a first-in first-out queue whose array is reused rather than
// resliced away: a pop clears its slot and advances a head index, which
// resets to the front when the queue empties, so a queue that drains
// and refills allocates nothing once warm. A queue that never empties
// (a best-effort rotation, an overloaded server's backlog) slides its
// live elements back to the front when a push finds the array full with
// at least half of it already popped. Each slide moves at most half the
// array and buys at least as many pushes, so push and pop stay
// amortized O(1), and the array never shrinks.
type fifo[T any] struct {
	buf  []T // buf[head:] holds the queued elements, oldest first
	head int
}

// len returns the number of queued elements.
func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest element. The queue must not be empty.
func (q *fifo[T]) front() T { return q.buf[q.head] }

// items returns the queued elements, oldest first. The slice aliases
// the queue and is valid until the next push, pop or remove.
func (q *fifo[T]) items() []T { return q.buf[q.head:] }

// push appends x at the back.
func (q *fifo[T]) push(x T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, x)
}

// pop removes and returns the oldest element. The queue must not be
// empty.
func (q *fifo[T]) pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return x
}

// remove deletes the i-th queued element (0 is the oldest), keeping the
// others in order.
func (q *fifo[T]) remove(i int) {
	i += q.head
	copy(q.buf[i:], q.buf[i+1:])
	var zero T
	q.buf[len(q.buf)-1] = zero
	if q.buf = q.buf[:len(q.buf)-1]; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}
