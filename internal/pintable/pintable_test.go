package pintable

import (
	"math/rand"
	"testing"
)

// TestPinTableMatchesMap drives the open-addressed table and a Go map
// through the same random claims, in-place updates, removals and
// expiries, over a key space small enough that runs collide, wrap round
// the end of the array and are torn open by backward-shift deletes, and
// compares every lookup and the whole contents as it goes.
func TestPinTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table
		ref := map[uint64]Pin{}
		fids := 10 + 30*int(seed%2) // a table that stays at 16 slots, or grows to 512
		key := func() uint64 {
			// Mostly a dense range (adjacent homes, long runs), sometimes
			// the extremes of the two key packings Contra uses: (tag
			// ordinal, pid, flowlet hash) and (destination, flowlet hash).
			switch rng.Intn(10) {
			case 0:
				return Used | (1<<23-1)<<40 | 255<<32 | 0xffffffff
			case 1:
				return Used | (1<<31-1)<<32 | uint64(rng.Intn(4))
			}
			return Used | uint64(rng.Intn(3))<<40 | uint64(rng.Intn(2))<<32 | uint64(rng.Intn(fids))
		}
		check := func(step int) {
			t.Helper()
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d step %d: table holds %d pins, map %d", seed, step, tab.Len(), len(ref))
			}
			live := 0
			for i := range tab.slots {
				if s := tab.slots[i]; s.Key != 0 {
					live++
					if want, ok := ref[s.Key]; !ok || want != s {
						t.Fatalf("seed %d step %d: slot %d holds %+v, map has %+v (%v)", seed, step, i, s, want, ok)
					}
				}
			}
			if live != len(ref) {
				t.Fatalf("seed %d step %d: %d occupied slots, map %d", seed, step, live, len(ref))
			}
			for k, want := range ref {
				if got := tab.Find(k); got == nil || *got != want {
					t.Fatalf("seed %d step %d: Find(%#x) = %+v, map has %+v", seed, step, k, got, want)
				}
			}
		}
		now := int64(0)
		for step := 0; step < 4000; step++ {
			now += int64(rng.Intn(5))
			k := key()
			switch op := rng.Intn(100); {
			case op < 50: // decide or re-decide a flowlet
				s := tab.Claim(k)
				if _, held := ref[k]; !held && (*s != Pin{Key: k}) {
					t.Fatalf("seed %d step %d: a fresh slot is not zero: %+v", seed, step, *s)
				}
				s.Port, s.Tag, s.Pid, s.LastPkt = int32(rng.Intn(8)), 7, uint8(step), now
				ref[k] = *s
			case op < 75: // a packet on a pinned flowlet
				s := tab.Find(k)
				if _, held := ref[k]; held != (s != nil) {
					t.Fatalf("seed %d step %d: Find(%#x) = %v, map holds it: %v", seed, step, k, s, held)
				}
				if s != nil {
					s.LastPkt = now
					ref[k] = *s
				}
			case op < 90: // a loop break
				tab.Remove(k)
				delete(ref, k)
			case op < 98: // the sweep
				cutoff := now - int64(rng.Intn(60))
				tab.Expire(cutoff)
				for k, p := range ref {
					if p.LastPkt < cutoff {
						delete(ref, k)
					}
				}
			default: // a policy install
				tab.Reset()
				clear(ref)
			}
			if step%16 == 0 {
				check(step)
			}
		}
		check(-1)
	}
}

// TestPinTableSteadyStateAllocatesNothing pins what the routers' data
// paths rely on: once the table has reached its working size, claiming,
// removing and expiring pins never allocates.
func TestPinTableSteadyStateAllocatesNothing(t *testing.T) {
	var tab Table
	key := func(i int) uint64 { return Used | 5<<32 | uint64(i) }
	round := func() {
		for i := 0; i < 300; i++ {
			tab.Claim(key(i)).LastPkt = int64(i)
		}
		for i := 0; i < 300; i += 3 {
			tab.Remove(key(i))
		}
		tab.Expire(200)
		tab.Expire(1 << 40)
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("a round of claims, removals and expiries on a grown table allocates %.1f times, want 0", allocs)
	}
	if tab.Len() != 0 {
		t.Fatalf("%d pins survived an expiry past every timestamp", tab.Len())
	}
}
