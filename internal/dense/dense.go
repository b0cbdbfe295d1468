// Package dense is a table keyed by handles that a counter hands out in
// order: buffer, stream, event and communicator handles, on the device and
// in the handle spaces above it. A slice indexed by handle replaces a map,
// so a lookup is a bounds check rather than a hash.
package dense

import "slices"

// Table maps handles to values. The zero Table is empty and hands out 0
// first; Start picks another first handle.
type Table[T any] struct {
	s    []entry[T]
	base int // the handle of s[0]: every handle below it is forgotten
}

type entry[T any] struct {
	v  T
	ok bool
}

// Start returns an empty table whose first handle is first.
func Start[T any](first int) Table[T] { return Table[T]{base: first} }

// Add stores v under the next handle and returns that handle.
func (t *Table[T]) Add(v T) int {
	t.s = append(t.s, entry[T]{v, true})
	return t.base + len(t.s) - 1
}

// At returns the value under h, if h holds one.
func (t *Table[T]) At(h int) (T, bool) {
	if i := h - t.base; i >= 0 && i < len(t.s) && t.s[i].ok {
		return t.s[i].v, true
	}
	var zero T
	return zero, false
}

// Set stores v under h, which may be beyond the next handle.
func (t *Table[T]) Set(h int, v T) {
	for len(t.s) <= h-t.base {
		t.s = append(t.s, entry[T]{})
	}
	t.s[h-t.base] = entry[T]{v, true}
}

// Delete empties h. Its handle is not handed out again.
func (t *Table[T]) Delete(h int) {
	if i := h - t.base; i >= 0 && i < len(t.s) {
		t.s[i] = entry[T]{}
	}
}

// Each calls f with every handle that holds a value, in ascending order,
// including handles f itself adds.
func (t *Table[T]) Each(f func(h int, v T)) {
	for i, v, ok := t.Next(0); ok; i, v, ok = t.Next(i + 1) {
		f(t.base+i, v)
	}
}

// Next returns the first position at or after i that holds a value, and the
// value: Each's walk one step at a time, for a caller that stops inside it.
// A position counts from the oldest handle not yet forgotten, so a walk that
// resumes at pos+1 after a Reset goes on where Each would.
func (t *Table[T]) Next(i int) (pos int, v T, ok bool) {
	for ; i < len(t.s); i++ {
		if e := t.s[i]; e.ok {
			return i, e.v, true
		}
	}
	return i, v, false
}

// Reset forgets every handle handed out so far; Add continues after them.
func (t *Table[T]) Reset() {
	t.base += len(t.s)
	t.s = nil
}

// Clone returns an independent copy of the table.
func (t *Table[T]) Clone() Table[T] { return Table[T]{slices.Clone(t.s), t.base} }
