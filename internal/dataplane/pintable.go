package dataplane

import (
	"contra/internal/pg"
	"contra/internal/topo"
)

// pin is one flowlet or source-pin register: the decision a flowlet's
// first packet resolved and the rest of it inherits (§5.3). Flowlet
// entries leave pid unused: the packet carries it.
type pin struct {
	key     uint64 // 0 marks a free slot; every key in use has pinUsed set
	lastPkt int64
	nhop    int
	ntag    pg.NodeID
	pid     uint8
}

// pinUsed is set in every key, so that no key is 0.
const pinUsed = 1 << 63

// maxPinOrd bounds the local tag ordinals flowletKey can hold;
// layoutTables checks the program against it.
const maxPinOrd = 1<<23 - 1

// flowletKey packs a transit flowlet's identity — local tag ordinal,
// pid, flowlet hash — into one word. All 8 bits of pid and all 32 of
// fid have their own place, so distinct identities never share a key.
func flowletKey(ord int32, pid uint8, fid uint32) uint64 {
	return pinUsed | uint64(ord)<<40 | uint64(pid)<<32 | uint64(fid)
}

// sourceKey packs a source pin's identity: destination switch and
// flowlet hash. dst is a valid (non-negative) node id.
func sourceKey(dst topo.NodeID, fid uint32) uint64 {
	return pinUsed | uint64(dst)<<32 | uint64(fid)
}

// pinTable is an exact-match table of pins by value under one-word
// keys: open addressing with linear probing, deletion by backward
// shift (no tombstones, so a table that churns stays as fast as a fresh
// one). It allocates only to double; once it has reached its working
// size, inserting, re-deciding and expiring flowlets touch no heap.
// Pointers it returns are good until the next claim, remove or expire.
type pinTable struct {
	slots []pin // length 0 or a power of two
	n     int
	shift uint // 64 - log2(len(slots))
}

// home is where key's probe sequence starts.
func (t *pinTable) home(key uint64) int {
	return int(key * 0x9e3779b97f4a7c15 >> t.shift)
}

// at returns the index of key's slot, or -1.
func (t *pinTable) at(key uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// find returns key's slot, or nil.
func (t *pinTable) find(key uint64) *pin {
	if i := t.at(key); i >= 0 {
		return &t.slots[i]
	}
	return nil
}

// claim returns key's slot, taking a free one (zero but for the key)
// when the table does not hold the key yet.
func (t *pinTable) claim(key uint64) *pin {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return s
		}
		if s.key == 0 {
			s.key = key
			t.n++
			return s
		}
	}
}

// grow doubles the table (from nothing, to 16 slots) and re-places
// every pin.
func (t *pinTable) grow() {
	old := t.slots
	size := max(16, 2*len(old))
	t.slots = make([]pin, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
	for i := range old {
		if old[i].key != 0 {
			*t.claim(old[i].key) = old[i]
		}
	}
}

// remove deletes key if the table holds it.
func (t *pinTable) remove(key uint64) {
	if i := t.at(key); i >= 0 {
		t.removeAt(i)
	}
}

// removeAt frees slot i and closes the gap: each later pin of the run
// moves back into the hole if its probe sequence passes through it.
func (t *pinTable) removeAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The pin at j may sit anywhere from its home up to j; it can
		// move to i when i is in that stretch.
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = pin{}
	t.n--
}

// expire deletes every pin last used before cutoff. A deletion moves
// later pins back, possibly into the slot just freed, so that slot is
// looked at again; a pin carried round the end of the array is looked
// at twice, which is harmless.
func (t *pinTable) expire(cutoff int64) {
	for i := 0; i < len(t.slots); {
		if s := &t.slots[i]; s.key != 0 && s.lastPkt < cutoff {
			t.removeAt(i)
			continue
		}
		i++
	}
}

// reset empties the table, keeping its storage.
func (t *pinTable) reset() {
	clear(t.slots)
	t.n = 0
}
