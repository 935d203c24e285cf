package telemetry

// ring is a retained series bounded to its most recent limit entries.
// Below the bound it grows by plain append; once full, push overwrites
// the oldest entry in place, so every push is O(1) and the ring never
// holds more than limit entries. limit <= 0 means unbounded: push is a
// plain append and nothing is ever dropped. The zero value is an empty
// unbounded ring.
type ring[T any] struct {
	buf   []T
	head  int // index of the oldest entry once the ring is full
	limit int // retention bound; <= 0 = unbounded
}

// push appends v, evicting the oldest entry when the ring is full.
func (r *ring[T]) push(v T) {
	if r.limit <= 0 || len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
}

// len returns the number of retained entries.
func (r *ring[T]) len() int { return len(r.buf) }

// appendTo appends the retained entries to dst, oldest first. Like
// append, it returns dst unchanged (nil stays nil) when the ring is
// empty.
func (r *ring[T]) appendTo(dst []T) []T {
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head]...)
}
