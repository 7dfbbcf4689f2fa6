package slab

import "sync"

// Store holds what finished users handed on to the next one, most
// recent first: a released cell's state, a finished stream's random
// source. A Get on any goroutine finds what any other put, and a
// collection does not empty it, so reuse does not depend on the
// scheduler. It never holds more items than were out at one time.
type Store[T any] struct {
	mu     sync.Mutex
	items  []*T
	misses int64
}

// Get removes and returns the item put last, or nil when the store is
// empty, which it counts as a miss.
func (s *Store[T]) Get() (x *T) {
	s.mu.Lock()
	if n := len(s.items); n > 0 {
		x, s.items[n-1], s.items = s.items[n-1], nil, s.items[:n-1]
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return x
}

// Put hands x on to the next Get.
func (s *Store[T]) Put(x *T) {
	s.mu.Lock()
	s.items = append(s.items, x)
	s.mu.Unlock()
}

// Misses returns how many Gets found the store empty.
func (s *Store[T]) Misses() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}
