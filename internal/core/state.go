package core

// Switch state accounting (Figure 10). The estimate mirrors how a P4
// target would size its match-action tables:
//
//   - FwdT: one entry per (origin, local tag, pid) that probes can
//     actually deliver. Key = destination id + tag + pid; value =
//     metric vector + next tag + next hop + version.
//   - BestT: one entry per reachable origin.
//   - Tag transition table: one entry per product-graph in-edge.
//   - Flowlet table: fixed-size register array (hash-indexed), keyed
//     by (tag, pid, flowlet hash).
//   - Loop detection table: fixed-size register array of TTL ranges.
//
// Sizes use the compact encodings of the paper's P4 artifact: 16-bit
// destination ids, 16-bit fixed-point metrics, 16-bit versions, 8-bit
// ports.
//
// The simulator's switch runtime (internal/dataplane) keeps FwdT and
// BestT in the same shape it is accounted here: one register file of
// origins × len(VNodes) × pids entries, indexed by (origin ordinal,
// local tag, pid), with one BestT slot per origin. It is laid out whole
// at deploy time for every origin of the compiled program (OriginOrd),
// so it holds at least the ReachableOrigins blocks counted below — more
// where the policy keeps some origin's probes from reaching the switch —
// and entries are Go structs rather than the packed bit fields.
const (
	flowletEntries = 1024
	loopEntries    = 512

	dstBits     = 16
	pidBits     = 8
	versionBits = 16
	portBits    = 8
	metricBits  = 16
	timeBits    = 32
	ttlBits     = 8
	hashBits    = 16
)

func bitsToBytes(bits int) int { return (bits + 7) / 8 }

// accountState fills Stats.StateBytes for every switch.
func (c *Compiled) accountState() {
	c.Stats.StateBytes = make([]int, c.Topo.NumNodes())
	tagBits := c.PG.TagBits()
	if tagBits == 0 {
		tagBits = 1
	}
	mvBits := metricBits * len(c.Analysis.MV)
	pids := c.Analysis.NumPids()

	fwdKeyBits := dstBits + tagBits + pidBits
	fwdValBits := mvBits + tagBits + portBits + versionBits
	bestValBits := tagBits + pidBits
	transKeyBits := tagBits + portBits
	flowletBits := tagBits + pidBits + hashBits + portBits + tagBits + timeBits
	loopBits := hashBits + 2*ttlBits

	total := 0
	max := 0
	for i := range c.programs {
		sp := &c.programs[i]
		fwdEntries := sp.ReachableOrigins * len(sp.VNodes) * pids
		bits := fwdEntries*(fwdKeyBits+fwdValBits) +
			sp.ReachableOrigins*(dstBits+bestValBits) +
			c.transitions(sp)*(transKeyBits+tagBits) +
			flowletEntries*flowletBits +
			loopEntries*loopBits
		b := bitsToBytes(bits)
		c.Stats.StateBytes[sp.Switch] = b
		total += b
		if b > max {
			max = b
		}
	}
	c.Stats.TotalStateBytes = total
	c.Stats.MaxStateBytes = max
	if len(c.programs) > 0 {
		c.Stats.MeanStateBytes = float64(total) / float64(len(c.programs))
	}
}

// transitions is the number of sp's tag transition entries: one per
// product graph in-edge of its virtual nodes. A sender has at most one
// successor per switch, so no two entries share a key.
func (c *Compiled) transitions(sp *SwitchProgram) int {
	n := 0
	for _, v := range sp.VNodes {
		n += len(c.PG.In(v))
	}
	return n
}
