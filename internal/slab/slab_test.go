package slab

import (
	"sync"
	"testing"
)

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

func TestReuseClearsAndKeepKeeps(t *testing.T) {
	s := []int{1, 2, 3, 4}
	r := Reuse(s, 3)
	if &r[0] != &s[0] || len(r) != 3 || r[0] != 0 || r[2] != 0 || s[3] != 4 {
		t.Fatalf("Reuse(s, 3) = %v over %v; want three zeros in s's array, the fourth untouched", r, s)
	}
	if g := Reuse(s, 5); len(g) != 5 || &g[0] == &s[0] {
		t.Fatal("Reuse past the capacity did not start a fresh array")
	}
	s = []int{1, 2, 3, 4}
	k := Keep(s[:1], 4)
	if &k[0] != &s[0] || k[3] != 4 {
		t.Fatalf("Keep(s[:1], 4) = %v; want s as it was", k)
	}
	if k = Keep(s, 6); len(k) != 6 || k[3] != 4 || k[5] != 0 {
		t.Fatalf("Keep(s, 6) = %v; want s's elements, then zeros", k)
	}
	e := make([]int, 0, 3)
	a := Extend(&e, 2)
	a[0] = 7
	b := Extend(&e, 1)
	if len(e) != 3 || &b[0] != &e[2] || cap(a) != 2 || b[0] != 0 {
		t.Fatalf("Extend: windows %v and %v in %v; want both in one array", a, b, e)
	}
	if c := Extend(&e, 1); len(e) != 1 || &c[0] != &e[0] || a[0] != 7 {
		t.Fatalf("Extend past the capacity: %v in %v, the first window %v; want a fresh array", c, e, a)
	}
}

// TestStoreHandsOnAcrossGoroutines has goroutines draw an item, or
// make one on a miss, and put it back, over and over: each must find
// what the others put, so the store makes no more items than
// goroutines, wherever each runs.
func TestStoreHandsOnAcrossGoroutines(t *testing.T) {
	const workers, rounds = 4, 200
	var s Store[int]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				x := s.Get()
				if x == nil {
					x = new(int)
				}
				*x++
				s.Put(x)
			}
		}()
	}
	wg.Wait()
	total := 0
	for x := s.Get(); x != nil; x = s.Get() {
		total += *x
	}
	if m := s.Misses(); m > workers+1 || total != workers*rounds {
		t.Fatalf("%d misses and %d uses in all; want at most %d misses (one per goroutine, one to drain) and %d uses", m, total, workers+1, workers*rounds)
	}
}
