package slab

import "testing"

func TestTakeCarvesDisjointWindows(t *testing.T) {
	s := make([]int, 5)
	a, b := Take(&s, 2), Take(&s, 3)
	if len(a) != 2 || cap(a) != 2 || len(b) != 3 || cap(b) != 3 || len(s) != 0 {
		t.Fatalf("windows %d/%d and %d/%d, %d left; want 2/2, 3/3, 0", len(a), cap(a), len(b), cap(b), len(s))
	}
	a = append(a, 7) // no spare capacity: the append must not reach b
	if b[0] != 0 {
		t.Fatal("an append to one window wrote into the next")
	}
	b[2] = 9
	c := Take(&s, 1) // the slab is spent: a fresh table
	c[0] = 4
	if b[2] != 9 || len(c) != 1 {
		t.Fatal("a window past the slab's end aliases another")
	}
	var none []int
	if w := Take(&none, 0); len(w) != 0 {
		t.Fatalf("Take(nil, 0) = %v", w)
	}
}
