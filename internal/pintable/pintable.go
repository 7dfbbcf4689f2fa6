// Package pintable is the exact-match register table both
// utilization-aware routers pin flowlets in: Contra's flowlet and
// source-pin tables (§5.3) and HULA's flowlet table. A pin is the
// decision a flowlet's first packet resolved, which the rest of the
// flowlet inherits.
package pintable

// Pin is one flowlet register. Which fields a router reads is its own
// business: HULA keeps only Port, Contra's transit flowlets Port and
// Tag, its source pins all three.
type Pin struct {
	Key     uint64 // 0 marks a free slot; every key in use has Used set
	LastPkt int64
	Port    int32 // egress port
	Tag     int32 // the next tag (Contra)
	Pid     uint8 // the probe id (Contra source pins)
}

// Used is set in every key, so that no key is 0.
const Used = 1 << 63

// Table is an exact-match table of pins by value under one-word keys:
// open addressing with linear probing, deletion by backward shift (no
// tombstones, so a table that churns stays as fast as a fresh one). It
// allocates only to double; once it has reached its working size,
// inserting, re-deciding and expiring flowlets touch no heap. Pointers
// it returns are good until the next Claim, Remove or Expire. The zero
// value is an empty table.
type Table struct {
	slots []Pin // length 0 or a power of two
	n     int
	shift uint // 64 - log2(len(slots))
}

// Len is the number of pins held.
func (t *Table) Len() int { return t.n }

// home is where key's probe sequence starts.
func (t *Table) home(key uint64) int {
	return int(key * 0x9e3779b97f4a7c15 >> t.shift)
}

// at returns the index of key's slot, or -1.
func (t *Table) at(key uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].Key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// Find returns key's slot, or nil.
func (t *Table) Find(key uint64) *Pin {
	if i := t.at(key); i >= 0 {
		return &t.slots[i]
	}
	return nil
}

// Claim returns key's slot, taking a free one (zero but for the key)
// when the table does not hold the key yet.
func (t *Table) Claim(key uint64) *Pin {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.Key == key {
			return s
		}
		if s.Key == 0 {
			s.Key = key
			t.n++
			return s
		}
	}
}

// grow doubles the table (from nothing, to 16 slots) and re-places
// every pin.
func (t *Table) grow() {
	old := t.slots
	size := max(16, 2*len(old))
	t.slots = make([]Pin, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.n = 0
	for i := range old {
		if old[i].Key != 0 {
			*t.Claim(old[i].Key) = old[i]
		}
	}
}

// Remove deletes key if the table holds it.
func (t *Table) Remove(key uint64) {
	if i := t.at(key); i >= 0 {
		t.removeAt(i)
	}
}

// removeAt frees slot i and closes the gap: each later pin of the run
// moves back into the hole if its probe sequence passes through it.
func (t *Table) removeAt(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].Key != 0; j = (j + 1) & mask {
		// The pin at j may sit anywhere from its home up to j; it can
		// move to i when i is in that stretch.
		if (j-t.home(t.slots[j].Key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = Pin{}
	t.n--
}

// Expire deletes every pin last used before cutoff. A deletion moves
// later pins back, possibly into the slot just freed, so that slot is
// looked at again; a pin carried round the end of the array is looked
// at twice, which is harmless.
func (t *Table) Expire(cutoff int64) {
	for i := 0; i < len(t.slots); {
		if s := &t.slots[i]; s.Key != 0 && s.LastPkt < cutoff {
			t.removeAt(i)
			continue
		}
		i++
	}
}

// Reset empties the table, keeping its storage.
func (t *Table) Reset() {
	clear(t.slots)
	t.n = 0
}
