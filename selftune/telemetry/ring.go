package telemetry

import "slices"

// ring is a retained series bounded to its most recent limit entries.
// Below the bound it grows by plain append; once full, push overwrites
// the oldest entry in place, so every push is O(1) and the ring never
// holds more than limit entries. limit <= 0 means unbounded: nothing
// is ever dropped, and the entries are kept in blocks of ringBlock, so
// the series is never copied as it grows. A fleet's request log holds
// hundreds of thousands of entries; growing it by append left each old
// array alive next to its copy until a collection ran, and those
// copies set the process's peak resident set. The zero value is an
// empty unbounded ring.
type ring[T any] struct {
	blocks [][]T // an unbounded ring's full blocks, oldest first
	buf    []T
	head   int // index of the oldest entry once the ring is full
	limit  int // retention bound; <= 0 = unbounded
}

// ringBlock is the number of entries in a full block of an unbounded
// ring.
const ringBlock = 4096

// push appends v, evicting the oldest entry when the ring is full.
func (r *ring[T]) push(v T) {
	if r.limit <= 0 {
		if len(r.buf) == ringBlock {
			r.blocks = append(r.blocks, r.buf)
			r.buf = make([]T, 0, ringBlock)
		}
		r.buf = append(r.buf, v)
		return
	}
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
}

// len returns the number of retained entries.
func (r *ring[T]) len() int { return len(r.blocks)*ringBlock + len(r.buf) }

// appendTo appends the retained entries to dst, oldest first. Like
// append, it returns dst unchanged (nil stays nil) when the ring is
// empty.
func (r *ring[T]) appendTo(dst []T) []T {
	dst = slices.Grow(dst, r.len())
	for _, b := range r.blocks {
		dst = append(dst, b...)
	}
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:r.head]...)
}
