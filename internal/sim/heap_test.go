package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// TestEventLayout pins the two properties of a queue entry the sift
// cost rests on: 24 bytes, and nothing the collector must trace (no
// write barrier per copied entry, no scan of the queue).
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("sizeof(event) = %d, want 24", got)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Func, reflect.Interface,
			reflect.Slice, reflect.Map, reflect.Chan, reflect.String:
			t.Errorf("%s is a %s: queue entries must be pointer-free", path, ty.Kind())
		}
	}
	walk("event", reflect.TypeOf(event{}))
}

// checkHeap asserts the heap property over the whole queue.
func checkHeap(t *testing.T, q []event) {
	t.Helper()
	for i := 1; i < len(q); i++ {
		if p := (i - 1) / 2; q[i].before(&q[p]) {
			t.Fatalf("heap property broken: entry %d (%d, %d) sorts before its parent %d (%d, %d)",
				i, q[i].at, q[i].seq, p, q[p].at, q[p].seq)
		}
	}
}

// TestHeapMatchesContainerHeap runs random push / popTop / rekeyTop
// scripts against container/heap on (at, seq) (refHeap, the reference
// scheduler's queue). The profiles aim at what the branch-free child
// select could get wrong: bursts at one instant (seq alone decides, and
// the low word's borrow must carry), populations of 0-4 (the last parent
// has one child and the select must not read a right sibling that is not
// there), at == 0 and at next to MaxInt64 (the signed time compared as
// unsigned).
func TestHeapMatchesContainerHeap(t *testing.T) {
	profiles := []struct {
		name   string
		maxPop int                                // population the script hovers under
		at     func(r *rand.Rand) int64           // absolute time of a pushed entry
		later  func(r *rand.Rand, at int64) int64 // rekeyTop's new time, >= at
	}{
		{"spread", 700,
			func(r *rand.Rand) int64 { return r.Int63n(1 << 20) },
			func(r *rand.Rand, at int64) int64 { return at + r.Int63n(1<<12) }},
		{"bursts", 300,
			func(r *rand.Rand) int64 { return 1000 * r.Int63n(4) },
			func(r *rand.Rand, at int64) int64 { return at + 1000*r.Int63n(2) }},
		{"tiny", 4,
			func(r *rand.Rand) int64 { return r.Int63n(8) },
			func(r *rand.Rand, at int64) int64 { return at + r.Int63n(3) }},
		{"zero", 40,
			func(r *rand.Rand) int64 { return 0 },
			func(r *rand.Rand, at int64) int64 { return at }},
		{"maxint", 40,
			func(r *rand.Rand) int64 { return math.MaxInt64 - r.Int63n(3) },
			func(r *rand.Rand, at int64) int64 { return at + r.Int63n(math.MaxInt64-at+1) }},
		{"extremes", 40,
			func(r *rand.Rand) int64 { return []int64{0, 1, math.MaxInt64 - 1, math.MaxInt64}[r.Intn(4)] },
			func(r *rand.Rand, at int64) int64 { return []int64{at, math.MaxInt64}[r.Intn(2)] }},
	}
	for _, p := range profiles {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			var ref refHeap
			var seq uint64
			// same reports whether both heaps have the same entry on top:
			// key and the payload that must travel with it.
			same := func() bool {
				got, want := e.queue[0], ref[0]
				return got.at == want.at && got.seq == want.seq && got.arg == want.arg
			}
			for step := 0; step < 4000; step++ {
				switch roll := rng.Intn(9); {
				case len(ref) == 0 || roll < 5 && len(ref) < p.maxPop:
					seq++
					at := p.at(rng)
					e.push(event{at: at, seq: seq, arg: int32(seq), kind: evDeliver})
					heap.Push(&ref, refEvent{at: at, seq: seq, arg: int32(seq)})
				case roll < 8:
					e.popTop()
					heap.Pop(&ref)
				default:
					// A re-key moves the root to a slot reserved later: a
					// time not before its own and a fresh sequence number.
					seq++
					at := p.later(rng, ref[0].at)
					e.rekeyTop(at, seq)
					ref[0].at, ref[0].seq = at, seq
					heap.Fix(&ref, 0)
				}
				if len(e.queue) != len(ref) {
					t.Fatalf("%s seed %d step %d: population %d, reference %d", p.name, seed, step, len(e.queue), len(ref))
				}
				checkHeap(t, e.queue)
				if len(ref) > 0 && !same() {
					t.Fatalf("%s seed %d step %d: top %+v, reference %+v", p.name, seed, step, e.queue[0], ref[0])
				}
			}
			for len(ref) > 0 {
				if !same() {
					t.Fatalf("%s seed %d drain: top %+v, reference %+v", p.name, seed, e.queue[0], ref[0])
				}
				e.popTop()
				heap.Pop(&ref)
				checkHeap(t, e.queue)
			}
			if len(e.queue) != 0 {
				t.Fatalf("%s seed %d: %d entries left after the reference drained", p.name, seed, len(e.queue))
			}
		}
	}
}
