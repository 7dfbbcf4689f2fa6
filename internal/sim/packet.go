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
// fattree scale).
type ProbeEntry struct {
	Origin  topo.NodeID // destination switch the entry advertises
	Tag     int32       // sender's product-graph virtual node
	Version uint32
	Pid     uint8
	Up      bool       // HULA packed propagation state (still traveling upward)
	MV      [4]float64 // metric vector, laid out per the compiled policy
}

// Packet is the single on-wire unit. One struct serves data, acks and
// probes to keep the hot path free of interface dispatch and type
// switches (a packet arrives every few hundred ns of simulated time).
type Packet struct {
	Kind Kind
	Size int // total bytes on the wire

	// Flow addressing: hosts for data/acks.
	Src, Dst topo.NodeID
	FlowID   uint64
	Seq      int64 // packet sequence within the flow (data), or echoed seq (ack)
	Ack      int64 // cumulative ack: next expected packet seq
	TTL      uint8
	// flow is the flow's index in Network.flowTab plus one, so the
	// receiving host needs no map lookup. Zero, which is also what pool
	// recycling leaves, means no registered flow: CBR traffic or a packet
	// a test built by hand.
	flow int32

	// Scheme fields: Contra tag/pid, SPAIN vlan (in Tag), Hula origin.
	Tag    int32 // product-graph virtual node id, or -1
	Pid    uint8
	HasTag bool
	// Era is the policy generation the tag/pid/MV were computed under.
	// A runtime policy swap bumps the fleet era; packets and probes
	// stamped with a superseded era carry tags whose meaning changed,
	// so routers re-route (data) or discard (probes) them instead of
	// misinterpreting the stale tag space.
	Era uint8

	// Probe fields.
	Origin  topo.NodeID // destination switch the probe advertises
	Version uint32
	Up      bool       // Hula: probe still traveling upward
	MV      [4]float64 // metric vector, laid out per the compiled policy

	// Packed multi-origin probe (probe packing, §5.2 overhead
	// reduction): when IsPacked is set, the per-origin probe fields
	// above are unused and Packed carries one entry per advertised
	// origin. An empty Packed with IsPacked set is a heartbeat: it
	// refreshes port liveness without advertising anything. The slice's
	// backing array survives pool recycling and is what sorts a freed
	// packet onto the pool's packed list, where NewPackedProbe finds it:
	// once the arrays in circulation have grown to the largest
	// advertisement a port sends, packed fan-out allocates nothing,
	// whatever else the fabric is carrying.
	IsPacked bool
	Packed   []ProbeEntry

	// Diagnostics.
	Hops    uint8
	Visited uint64 // bitmask of visited switches (loop accounting, <=64 switches)
	// QueueNs accumulates the queueing delay this packet waited across
	// its path. Only maintained while a trace recorder is attached;
	// pool recycling zeroes it like every other field.
	QueueNs int64

	// dueAt/dueSeq are the arrival's reserved slot in the engine's
	// total order while the packet is in flight on a channel.
	dueAt  int64
	dueSeq uint64

	// next links the packet into exactly one list at a time: the pool's
	// freelist while free, its channel's in-flight FIFO between transmit
	// and delivery. Never both: a packet is freed only by its owner,
	// and in flight the channel owns it. It is nil on a packet a device
	// holds (get, Clone and delivery clear it), which transmit relies on.
	next *Packet
}

// pool recycles packets on two freelists (the simulator is
// single-threaded): packets that own a Packed backing array, and plain
// ones. One LIFO list would hand a probe flush whatever was freed last —
// under load a data or ACK packet with no array, so every flush would
// allocate one. The packed list is fed from the plain one when empty (the
// packet gains an array and lives there from then on), never the other
// way round: a data packet that borrowed a packed packet would carry the
// array off for a round trip, and the next flush would allocate again.
// So the packed list holds as many packets as probes were ever in flight
// at once, and no more.
type pool struct {
	plain, packed *Packet
	slabs         int // packetSlabs allocated: every packet ever drawn came from one
}

// packetSlab is what the pool allocates when the plain list is empty:
// as many packets as fit the allocator's 16 KiB size class. The
// allocator puts an 8-byte header in front of an object with pointers;
// the pad after it puts the first packet, and so every packet (192
// bytes), on a cache-line boundary, as a packet allocated alone is.
type packetSlab struct {
	_    [64 - 8]byte
	pkts [(16<<10 - 64) / unsafe.Sizeof(Packet{})]Packet
}

// get returns a zeroed packet for a data, ACK or standalone probe.
func (p *pool) get() *Packet {
	pkt := p.plain
	if pkt == nil {
		p.slabs++
		slab := new(packetSlab).pkts[:]
		for i := 1; i < len(slab)-1; i++ {
			slab[i].next = &slab[i+1]
		}
		p.plain = &slab[1]
		return &slab[0]
	}
	p.plain = pkt.next
	*pkt = Packet{}
	return pkt
}

// getPacked returns a zeroed packet whose empty Packed has room for n
// entries, reusing a freed packet's backing array when there is one.
func (p *pool) getPacked(n int) *Packet {
	pkt := p.packed
	if pkt == nil {
		pkt = p.get()
	} else {
		p.packed = pkt.next
	}
	packed := pkt.Packed[:0]
	if cap(packed) < n {
		packed = make([]ProbeEntry, 0, n)
	}
	*pkt = Packet{}
	pkt.Packed = packed
	return pkt
}

func (p *pool) put(pkt *Packet) {
	list := &p.plain
	if cap(pkt.Packed) > 0 {
		list = &p.packed
	}
	pkt.next = *list
	*list = pkt
}

// slabLen is how many packets one packetSlab holds.
const slabLen = len(packetSlab{}.pkts)

// free counts the packets on both freelists, stopping past limit: a
// packet freed twice closes its list into a cycle, which must not hang
// the count.
func (p *pool) free(limit int) int {
	n := 0
	for _, list := range [2]*Packet{p.plain, p.packed} {
		for pkt := list; pkt != nil && n <= limit; pkt = pkt.next {
			n++
		}
	}
	return n
}

// NewPacket returns a zeroed packet from the pool.
func (n *Network) NewPacket() *Packet { return n.pool.get() }

// NewPackedProbe returns a packed probe (Kind, IsPacked and TTL set,
// everything else zero) whose empty Packed has room for entries
// advertisements: appending that many does not allocate.
func (n *Network) NewPackedProbe(entries int) *Packet {
	p := n.pool.getPacked(entries)
	p.Kind = Probe
	p.IsPacked = true
	p.TTL = InitialTTL
	return p
}

// Clone copies a packet (for multicast), drawing from the list its
// source would be freed to. Packed entries are copied into the clone's
// own backing array, never aliased.
func (n *Network) Clone(pkt *Packet) *Packet {
	var c *Packet
	if cap(pkt.Packed) > 0 {
		c = n.pool.getPacked(len(pkt.Packed))
	} else {
		c = n.pool.get()
	}
	packed := c.Packed
	*c = *pkt
	c.next = nil
	c.Packed = append(packed, pkt.Packed...)
	return c
}

// Free returns a packet to the pool. Devices must not retain packets
// after freeing.
func (n *Network) Free(pkt *Packet) { n.pool.put(pkt) }
