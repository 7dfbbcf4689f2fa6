package sim

import (
	"unsafe"

	"contra/internal/topo"
)

// Kind classifies packets.
type Kind uint8

// Packet kinds.
const (
	Data Kind = iota
	Ack
	Probe
)

// Header sizes in bytes. Data and ack packets pay Ethernet+IP+TCP-ish
// framing; schemes that tag packets (Contra, SPAIN) pay TagHeaderBytes
// extra, which the traffic-overhead accounting of Figure 16 captures.
const (
	MSS            = 1460
	FrameHeader    = 58 // 14 eth + 20 ip + 20 tcp + 4 fcs
	AckSize        = FrameHeader + 6
	TagHeaderBytes = 4
	InitialTTL     = 64
)

// ProbeEntry is one origin's advertisement inside a packed probe: the
// per-origin fields a standalone probe would carry in its own frame.
// Packing amortizes the L2 framing and — far more importantly — the
// per-packet event cost across every origin a switch re-advertises on
// a port in the same probe period (§5.2: probe volume dominates at
// fattree scale). The entry's metric vector lives beside it in its
// ProbeBuf, at the buffer's width.
type ProbeEntry struct {
	Origin  topo.NodeID // destination switch the entry advertises
	Tag     int32       // sender's product-graph virtual node
	Version uint32
	Pid     uint8
	Up      bool // HULA packed propagation state (still traveling upward)
}

// Packet is the single on-wire unit. One struct serves data, acks and
// probes to keep the hot path free of interface dispatch and type
// switches (a packet arrives every few hundred ns of simulated time).
//
// It is two cache lines. The first holds everything the engine,
// transmit, the host transport and the data-path routers read; the
// second the probe and diagnostic fields. TestPacketLayout pins both.
type Packet struct {
	// next links the packet into exactly one list at a time: the pool's
	// freelist while free, its channel's in-flight FIFO between transmit
	// and delivery. Never both: a packet is freed only by its owner,
	// and in flight the channel owns it. It is nil on a packet a device
	// holds (get, Clone and delivery clear it), which transmit relies on.
	next *Packet
	// dueAt/dueSeq are the arrival's reserved slot in the engine's
	// total order while the packet is in flight on a channel.
	dueAt  int64
	dueSeq uint64

	FlowID uint64
	Size   int32       // total bytes on the wire
	Dst    topo.NodeID // destination host of data/acks
	// flow is the flow's index in Network.flowTab plus one, so the
	// receiving host needs no map lookup. Zero, which is also what pool
	// recycling leaves, means no registered flow: CBR traffic or a packet
	// a test built by hand.
	flow int32
	// Scheme fields: Contra tag/pid, SPAIN vlan (in Tag), Hula origin.
	Tag int32 // product-graph virtual node id, or -1
	// Seq and Ack fit 32 bits: StartFlows refuses flows past
	// MaxFlowBytes, which is fewer than 2³¹ packets (CBR's Seq wraps
	// after 2³¹, see startCBR).
	Seq    int32 // packet sequence within the flow (data), or echoed seq (ack)
	Ack    int32 // cumulative ack: next expected packet seq
	Kind   Kind
	TTL    uint8
	Pid    uint8
	HasTag bool
	// Era is the policy generation the tag/pid/MV were computed under.
	// A runtime policy swap bumps the fleet era; packets and probes
	// stamped with a superseded era carry tags whose meaning changed,
	// so routers re-route (data) or discard (probes) them instead of
	// misinterpreting the stale tag space.
	Era uint8
	Up  bool // Hula: probe still traveling upward

	// Probe fields.
	Origin  topo.NodeID // destination switch the probe advertises
	Version uint32
	MV      [4]float64 // metric vector, laid out per the compiled policy

	// Diagnostics.
	Visited uint64 // bitmask of visited switches (loop accounting, ids below TrackVisitedLimit)
	// QueueNs accumulates the queueing delay this packet waited across
	// its path. Only maintained while a trace recorder is attached;
	// pool recycling zeroes it like every other field.
	QueueNs int64

	// Packed is set on a packed multi-origin probe (probe packing, §5.2
	// overhead reduction) and nil on every other packet. Its entries
	// carry one advertisement per origin, and the per-origin probe
	// fields above are unused. An empty list is a heartbeat: it refreshes
	// port liveness without advertising anything. The buffer belongs to
	// the packet until Free returns both to the pool.
	Packed *ProbeBuf
}

// ProbeBuf is a packed probe's entry buffer. Buffers are pooled apart
// from packets, on their own freelist: only a packed probe ever holds
// one, so a data packet cannot carry one away, and once the buffers in
// circulation have grown to the largest advertisement a port sends,
// packed fan-out allocates nothing.
//
// The metric vectors are one float array at the width the sender's
// policy carries, so an entry costs what its policy ranks on: entry i's
// vector is MV[i*Width : (i+1)*Width] (MVOf). Append keeps the two in
// step.
//
// Packets holding one buffer (Share) only read it once one is sent: the
// buffer counts them in refs and goes back to the freelist with the
// last one's Free.
type ProbeBuf struct {
	Entries []ProbeEntry
	MV      []float64
	Width   int32
	refs    int32 // packets holding the buffer; 0 while it is free
	next    *ProbeBuf
}

// Append adds one entry with metric vector mv, zero-filled to the
// buffer's width; mv wider than that is a bug and panics.
func (b *ProbeBuf) Append(e ProbeEntry, mv ...float64) {
	// The entry is stored field by field: copied whole, it would be
	// spilled in narrow stores and read back in one wide load, which
	// stalls on them.
	b.Entries = append(b.Entries, ProbeEntry{})
	d := &b.Entries[len(b.Entries)-1]
	d.Origin = e.Origin
	d.Tag = e.Tag
	d.Version = e.Version
	d.Pid = e.Pid
	d.Up = e.Up
	// A reslice stores the length alone; append(b.MV, mv...) stores the
	// array pointer too, through a write barrier while the collector
	// marks, even when it does not grow.
	if n := len(b.MV); cap(b.MV)-n >= len(mv) {
		b.MV = b.MV[:n+len(mv)]
		copy(b.MV[n:], mv)
	} else {
		b.MV = append(b.MV, mv...)
	}
	if len(b.MV) != len(b.Entries)*int(b.Width) {
		b.padMV()
	}
}

// padMV zero-fills the last entry's short metric vector (a switch's own
// origin entries carry none).
func (b *ProbeBuf) padMV() {
	want := len(b.Entries) * int(b.Width)
	if len(b.MV) > want {
		panic("sim: metric vector wider than its probe buffer")
	}
	for len(b.MV) < want {
		b.MV = append(b.MV, 0)
	}
}

// MVOf is entry i's metric vector.
func (b *ProbeBuf) MVOf(i int) []float64 {
	w := int(b.Width)
	lo := i * w
	return b.MV[lo : lo+w : lo+w]
}

// IsPacked reports whether the packet is a packed multi-origin probe.
func (p *Packet) IsPacked() bool { return p.Packed != nil }

// pool recycles packets and probe buffers, each on its own LIFO freelist
// (the simulator is single-threaded), and allocates both in slabs when
// their list runs dry, drawing first on the slabs a released network
// handed on. The slabs it drew are on lists of their own, so release
// can hand them on in turn.
type pool struct {
	pkts     *Packet
	bufs     *ProbeBuf
	slabList *packetSlab // every packet slab drawn, newest first
	spare    *packetSlab // zeroed slabs handed on, not drawn yet
	bufList  *bufSlab    // every buffer slab drawn, newest first
	bufSpare *bufSlab    // emptied buffer slabs handed on, not drawn yet
	slabs    int         // packetSlabs drawn: every packet ever drawn came from one
	bufSlabs int         // bufSlabs drawn
	released bool
}

// bufSlab is the probe buffers the pool draws at once. A cell needs one
// per packed probe in flight at its peak (13 to 23 on the packed k = 8
// fat-tree cells), so one slab of bufSlabLen covers them. next links the
// slab into its pool's list of slabs drawn.
type bufSlab struct {
	bufs [bufSlabLen]ProbeBuf
	next *bufSlab
}

const bufSlabLen = 32

// packetSlab is what the pool draws when the packet list is empty: as
// many packets as fit the allocator's 16 KiB size class. The allocator
// puts an 8-byte header in front of an object with pointers; the pad
// after it puts the first packet, and so every packet (128 bytes), on a
// cache-line boundary, as a packet allocated alone is. The pad's first
// word links the slab into its pool's list of slabs drawn.
type packetSlab struct {
	next *packetSlab
	_    [64 - 8 - 8]byte
	pkts [(16<<10 - 64) / unsafe.Sizeof(Packet{})]Packet
}

// get returns a zeroed packet.
func (p *pool) get() *Packet {
	pkt := p.pkts
	if pkt == nil {
		return p.getSlab()
	}
	p.pkts = pkt.next
	*pkt = Packet{}
	return pkt
}

// getSlab draws a zeroed slab, a handed-on one when there is one, puts
// all its packets but the first on the freelist and returns the first.
func (p *pool) getSlab() *Packet {
	if p.released {
		panic("sim: packet drawn from a released network")
	}
	s := p.spare
	if s != nil {
		p.spare = s.next
	} else {
		s = new(packetSlab)
	}
	s.next, p.slabList = p.slabList, s
	p.slabs++
	slab := s.pkts[:]
	for i := 1; i < len(slab)-1; i++ {
		slab[i].next = &slab[i+1]
	}
	p.pkts = &slab[1]
	return &slab[0]
}

// release zeroes every packet slab the pool drew and empties every
// buffer, keeping the buffers' arrays, and returns both lists, the
// spare slabs it never drew included. The counts stay: drawn still
// reports what this pool drew.
func (p *pool) release() (*packetSlab, *bufSlab) {
	pkts, bufs := p.spare, p.bufSpare
	for s := p.slabList; s != nil; {
		next := s.next
		*s = packetSlab{next: pkts}
		pkts, s = s, next
	}
	for s := p.bufList; s != nil; {
		next := s.next
		for i := range s.bufs {
			b := &s.bufs[i]
			*b = ProbeBuf{Entries: b.Entries[:0], MV: b.MV[:0]}
		}
		s.next, bufs, s = bufs, s, next
	}
	*p = pool{slabs: p.slabs, bufSlabs: p.bufSlabs, released: true}
	return pkts, bufs
}

// getBuf returns an empty buffer of metric width w with room for n
// entries, held by one reference. A recycled buffer's arrays are grown only when they are
// smaller, and then at least doubled: advertisements grow as routes are
// learned, and a buffer that grew one entry at a time would be replaced
// once per step.
func (p *pool) getBuf(n, w int) *ProbeBuf {
	b := p.bufs
	if b == nil {
		s := p.bufSpare
		if s != nil {
			p.bufSpare = s.next
		} else {
			s = new(bufSlab)
		}
		s.next, p.bufList = p.bufList, s
		p.bufSlabs++
		slab := s.bufs[:]
		for i := 1; i < len(slab)-1; i++ {
			slab[i].next = &slab[i+1]
		}
		p.bufs = &slab[1]
		b = &slab[0]
	} else {
		p.bufs = b.next
		b.next = nil
	}
	if c := cap(b.Entries); c < n || cap(b.MV) < n*w {
		b.grow(max(n, 2*c), w)
	}
	b.Entries, b.MV, b.Width, b.refs = b.Entries[:0], b.MV[:0], int32(w), 1
	return b
}

// entryFloats is how many float64s a ProbeEntry spans. The build fails
// if that is not a whole number, which grow relies on.
const entryFloats = int(unsafe.Sizeof(ProbeEntry{}) / unsafe.Sizeof(float64(0)))

const _ = -(unsafe.Sizeof(ProbeEntry{}) % unsafe.Sizeof(float64(0)))

// grow replaces b's arrays with room for n entries of width w in one
// allocation, not two: a ProbeEntry holds no pointers and spans whole
// floats, so the entries are carved from the front of the float array
// whose rest holds the vectors.
func (b *ProbeBuf) grow(n, w int) {
	floats := make([]float64, n*(entryFloats+w))
	b.Entries = unsafe.Slice((*ProbeEntry)(unsafe.Pointer(unsafe.SliceData(floats))), n)
	b.MV = floats[n*entryFloats:]
}

func (p *pool) put(pkt *Packet) {
	if b := pkt.Packed; b != nil {
		pkt.Packed = nil
		if b.refs--; b.refs == 0 {
			b.next = p.bufs
			p.bufs = b
		}
	}
	pkt.next = p.pkts
	p.pkts = pkt
}

// slabLen is how many packets one packetSlab holds.
const slabLen = len(packetSlab{}.pkts)

// drawn returns how many packets and buffers the pool ever allocated.
func (p *pool) drawn() (pkts, bufs int) { return p.slabs * slabLen, p.bufSlabs * bufSlabLen }

// held walks every buffer the pool drew and returns how many are held
// (a reference or more) and their references summed.
func (p *pool) held() (bufs, refs int) {
	for s := p.bufList; s != nil; s = s.next {
		for i := range s.bufs {
			if r := s.bufs[i].refs; r != 0 {
				bufs++
				refs += int(r)
			}
		}
	}
	return bufs, refs
}

// free counts the packets and the buffers on the freelists, each count
// stopping past what was drawn: a packet freed twice closes its list
// into a cycle, which must not hang the count.
func (p *pool) free() (pkts, bufs int) {
	maxPkts, maxBufs := p.drawn()
	for pkt := p.pkts; pkt != nil && pkts <= maxPkts; pkt = pkt.next {
		pkts++
	}
	for b := p.bufs; b != nil && bufs <= maxBufs; b = b.next {
		bufs++
	}
	return pkts, bufs
}

// NewPacket returns a zeroed packet from the pool.
func (n *Network) NewPacket() *Packet { return n.pool.get() }

// NewPackedProbe returns a packed probe (Kind, Packed and TTL set,
// everything else zero) whose empty entry list has room for entries
// advertisements with metric vectors width floats wide: appending that
// many does not allocate.
func (n *Network) NewPackedProbe(entries, width int) *Packet {
	p := n.pool.get()
	p.Kind = Probe
	p.TTL = InitialTTL
	p.Packed = n.pool.getBuf(entries, width)
	return p
}

// Clone copies a packet (for multicast). A packed probe's entries are
// copied into a buffer of the clone's own, never aliased.
func (n *Network) Clone(pkt *Packet) *Packet {
	c := n.pool.get()
	*c = *pkt
	c.next = nil
	if src := pkt.Packed; src != nil {
		c.Packed = n.pool.getBuf(len(src.Entries), int(src.Width))
		c.Packed.Entries = append(c.Packed.Entries, src.Entries...)
		c.Packed.MV = append(c.Packed.MV, src.MV...)
	}
	return c
}

// Share copies a packed probe as Clone does, but the copy holds the
// original's entry buffer, one reference more, instead of a copy of it:
// a flush that says the same on several ports writes its entries once.
// Once any holder is sent, every holder only reads the buffer.
func (n *Network) Share(pkt *Packet) *Packet {
	c := n.pool.get()
	*c = *pkt
	c.next = nil
	pkt.Packed.refs++
	return c
}

// Free returns a packet to the pool, and a packed probe's buffer with
// its last reference. Devices must not retain packets after freeing.
func (n *Network) Free(pkt *Packet) { n.pool.put(pkt) }
