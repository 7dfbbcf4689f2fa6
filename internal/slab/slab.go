// Package slab carves per-device tables out of one backing array per
// table, so that deploying a scheme on a fabric allocates once per
// table, whatever the number of switches.
package slab

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
