// Package slab carves per-device tables out of one backing array per
// table, so that deploying a scheme on a fabric allocates once per
// table, whatever the number of switches; and it lays a new cell's
// tables out in the arrays a finished cell handed on (Reuse, Extend,
// Keep), so that a cell run after one as large allocates no table.
package slab

import "slices"

// Take returns the next n elements of *s as a window with no spare
// capacity, and advances *s past them. Windows taken from one slab are
// disjoint. When *s holds fewer than n elements the window is a fresh
// allocation of its own, so a device built outside a deploy, or one
// that outgrew its deploy's sizing, still gets its table.
func Take[T any](s *[]T, n int) []T {
	if len(*s) < n {
		return make([]T, n)
	}
	w := (*s)[:n:n]
	*s = (*s)[n:]
	return w
}

// Reuse returns a table of n zero elements in s's backing array when
// its capacity suffices, and in a fresh one otherwise. It clears the n
// elements a fresh make would have made zero, so a table drawn from a
// finished cell's starts from the same state as a new one: only the
// capacity carries over.
func Reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Extend appends n zero elements to *s and returns them as a window
// with no spare capacity. When *s has no room for them it starts over
// in a fresh array of n: windows taken before keep the array they are
// in, and *s holds the newest.
func Extend[T any](s *[]T, n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, n)
	}
	lo := len(*s)
	*s = (*s)[:lo+n]
	w := (*s)[lo : lo+n : lo+n]
	clear(w)
	return w
}

// Keep returns s at length n with its elements as they are, in s's
// backing array when its capacity suffices. It is for a slab whose
// elements own storage of their own, which the next user empties in
// place instead of allocating it again.
func Keep[T any](s []T, n int) []T {
	if k := n - cap(s); k > 0 {
		s = slices.Grow(s[:cap(s)], k)
	}
	return s[:n]
}
