package sim

import (
	"container/heap"
	"fmt"
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

// TestHeapMatchesContainerHeap runs random scripts against
// container/heap on (at, seq) (refHeap, the reference scheduler's
// queue) through the engine's own queue operations: arrivals pushed
// with pushDeliver, timers, one-shots and RTO carriers with push on the
// cold heap, and the earliest entry (first) popped or re-keyed as Run
// does — an arrival with popDeliver / rekeyDeliver from whichever of
// the run and the hot heap holds it, a cold entry with popTop /
// rekeyTop. After every step the earliest entry must be the
// reference's, with the payload that travels with it, and
// Engine.checkOrder must pass.
//
// The profiles aim at what the split and the branch-free child select
// could get wrong: bursts at one instant (seq alone decides, and the low
// word's borrow must carry), populations of 0-4 (the last parent has
// one child and the select must not read a right sibling that is not
// there; the run empties and refills), at == 0 and at next to MaxInt64
// (the signed time compared as unsigned), every key in order (the run
// alone carries arrivals) and every key reversed (the hot heap does).
func TestHeapMatchesContainerHeap(t *testing.T) {
	// clock is the running key of the ordered profiles, reset per script.
	var clock int64
	profiles := []struct {
		name   string
		maxPop int                                // population the script hovers under
		at     func(r *rand.Rand) int64           // absolute time of a pushed entry
		later  func(r *rand.Rand, at int64) int64 // a re-key's new time, >= at except in "reversed"
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
		// Every key at or after every key before it.
		{"inorder", 300,
			func(r *rand.Rand) int64 { clock += r.Int63n(3); return clock },
			func(r *rand.Rand, at int64) int64 { clock += r.Int63n(3); return clock }},
		// Every key before every key before it: the run holds one
		// arrival at most, taken when it was empty.
		{"reversed", 300,
			func(r *rand.Rand) int64 { clock -= 1 + r.Int63n(3); return 1<<40 + clock },
			func(r *rand.Rand, at int64) int64 { clock -= 1 + r.Int63n(3); return 1<<40 + clock }},
	}
	// How many re-keys of an arrival came off the run and the hot heap.
	var fromRun, fromHot int
	for _, p := range profiles {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			var ref refHeap
			var seq uint64
			clock = 0
			check := func(where string) {
				t.Helper()
				if e.Pending() != len(ref) {
					t.Fatalf("%s seed %d %s: population %d, reference %d", p.name, seed, where, e.Pending(), len(ref))
				}
				if err := e.checkOrder(); err != nil {
					t.Fatalf("%s seed %d %s: %v", p.name, seed, where, err)
				}
				switch {
				case p.name == "inorder" && len(e.hot) > 0:
					t.Fatalf("%s seed %d %s: %d arrivals on the hot heap", p.name, seed, where, len(e.hot))
				case p.name == "reversed" && e.runLen > 1:
					t.Fatalf("%s seed %d %s: %d arrivals on the run", p.name, seed, where, e.runLen)
				}
				if len(ref) == 0 {
					return
				}
				top, _ := e.first()
				if want := ref[0]; top.at != want.at || top.seq != want.seq || top.arg != want.arg || top.kind != want.kind {
					t.Fatalf("%s seed %d %s: first %+v, reference %+v", p.name, seed, where, *top, want)
				}
			}
			for step := 0; step < 4000; step++ {
				switch roll := rng.Intn(9); {
				case len(ref) == 0 || roll < 5 && len(ref) < p.maxPop:
					seq++
					ev := event{at: p.at(rng), seq: seq, arg: int32(seq), kind: evDeliver}
					if rng.Intn(3) == 0 {
						ev.kind = []evKind{evFunc, evTimer, evRTO}[rng.Intn(3)]
						e.push(&e.cold, ev)
					} else {
						e.pushDeliver(ev)
					}
					heap.Push(&ref, refEvent{at: ev.at, seq: ev.seq, arg: ev.arg, kind: ev.kind})
				case roll < 8:
					if _, in := e.first(); in == inCold {
						e.popTop(&e.cold)
					} else {
						e.popDeliver(in)
					}
					heap.Pop(&ref)
				default:
					// A re-key moves the earliest entry to a slot reserved
					// later: a fresh sequence number, and (but for the
					// reversed profile) a time not before its own.
					seq++
					at := p.later(rng, ref[0].at)
					switch _, in := e.first(); in {
					case inCold:
						e.rekeyTop(e.cold, at, seq)
					case inRun:
						fromRun++
						e.rekeyDeliver(in, at, seq)
					default:
						fromHot++
						e.rekeyDeliver(in, at, seq)
					}
					ref[0].at, ref[0].seq = at, seq
					heap.Fix(&ref, 0)
				}
				check(fmt.Sprint("step ", step))
			}
			for len(ref) > 0 {
				if _, in := e.first(); in == inCold {
					e.popTop(&e.cold)
				} else {
					e.popDeliver(in)
				}
				heap.Pop(&ref)
				check("drain")
			}
			if e.Pending() != 0 {
				t.Fatalf("%s seed %d: %d entries left after the reference drained", p.name, seed, e.Pending())
			}
		}
	}
	t.Logf("re-keyed %d arrivals off the run, %d off the hot heap", fromRun, fromHot)
	if fromRun == 0 || fromHot == 0 {
		t.Errorf("scripts re-keyed %d arrivals off the run and %d off the hot heap", fromRun, fromHot)
	}
}
