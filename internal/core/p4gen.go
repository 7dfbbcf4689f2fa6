package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"contra/internal/pg"
	"contra/internal/topo"
)

// p4Hole names a per-switch value spliced into the policy-wide text.
type p4Hole uint8

const (
	holeName        p4Hole = iota // the switch's name
	holeFwdSlots                  // FwdT register size
	holeBestSlots                 // BestT register size
	holePortUtil                  // port_util register size
	holeTransitions               // tag_transition's const entries
	holeMcast                     // probe_mcast's const entries
)

// p4Template is everything of the generated program that depends only
// on the policy, its metric vector, the tag width and the options: the
// literal text, and the offsets in it where a per-switch value goes, in
// text order. It is rendered once per Compiled and only read afterwards.
type p4Template struct {
	text string
	cuts []p4Cut
}

// p4Cut puts hole in a template's text just before byte at.
type p4Cut struct {
	at   int
	hole p4Hole
}

// p4TemplateBytes bounds the template's text beyond the policy's own
// source, at the largest metric vector, so that it renders into one
// buffer.
const p4TemplateBytes = 7 << 10

// GenerateP4 emits a device-local P4-16 program for one switch,
// mirroring the paper's compiler output: the probe header layout is
// policy-specific (one field per metric in the vector), the tag
// transition and probe multicast tables are baked in as const entries,
// and the forwarding/best/flowlet/loop tables are populated at runtime
// by the probe logic. It returns "" when sw is not a switch of the
// compiled topology, and may be called from several goroutines.
//
// The program targets the v1model-style pipeline; it is emitted for
// inspection and state accounting (our execution substrate is the
// simulator's switch runtime, which interprets the same artifacts).
func (c *Compiled) GenerateP4(sw topo.NodeID) string {
	sp := c.Switch(sw)
	if sp == nil {
		return ""
	}
	c.p4Once.Do(c.renderP4Template)
	t := &c.p4Tmpl
	p := c.planP4(sw, sp)

	var b strings.Builder
	b.Grow(p.len)
	from := 0
	for _, cut := range t.cuts {
		b.WriteString(t.text[from:cut.at])
		from = cut.at
		switch cut.hole {
		case holeName:
			b.WriteString(p.name)
		case holeTransitions:
			c.writeTransitionTable(&b, sw, sp, &p)
		case holeMcast:
			c.writeMcastTable(&b, sp, &p)
		default:
			writeInt(&b, p.sizes[cut.hole])
		}
	}
	b.WriteString(t.text[from:])
	return b.String()
}

// p4Plan is what one switch splices into the template, and the exact
// length of the resulting program, so that the output buffer is
// allocated once with no spare capacity. The table rows are not kept:
// they are read again from the product graph as they are written.
type p4Plan struct {
	name  string
	sizes [holePortUtil + 1]int // by hole, for the register-size holes
	// transSorted and mcastSorted say that the switch's rows, walked in
	// the product graph's order, already come out in printed order.
	transSorted, mcastSorted bool
	len                      int
}

// planP4 needs the template rendered.
func (c *Compiled) planP4(sw topo.NodeID, sp *SwitchProgram) p4Plan {
	p := p4Plan{name: c.Topo.Node(sw).Name, transSorted: true}
	p.sizes[holeFwdSlots] = fwdSlots(sp, c)
	p.sizes[holeBestSlots] = max(sp.ReachableOrigins, 1)
	p.sizes[holePortUtil] = max(len(c.Topo.Ports(sw)), 1)

	p.len = len(c.p4Tmpl.text)
	last := pg.NodeID(-1)
	c.transitionRows(sw, sp, func(e transitionEntry) {
		p.transSorted = p.transSorted && e.u > last
		last = e.u
		p.len += e.printedLen(p.name)
	})
	p.mcastSorted = slices.IsSorted(sp.VNodes)
	for _, v := range sp.VNodes {
		p.len += c.mcastLen(v)
	}
	for _, cut := range c.p4Tmpl.cuts {
		switch h := cut.hole; h {
		case holeName:
			p.len += len(p.name)
		case holeFwdSlots, holeBestSlots, holePortUtil:
			p.len += decLen(p.sizes[h])
		}
	}
	return p
}

// renderP4Template fills c.p4Tmpl; GenerateP4 runs it once.
func (c *Compiled) renderP4Template() {
	t := &c.p4Tmpl
	tagBits := c.PG.TagBits()
	if tagBits == 0 {
		tagBits = 1
	}

	policy := c.Policy.String()
	var b strings.Builder
	b.Grow(p4TemplateBytes + len(policy))
	t.cuts = make([]p4Cut, 0, 9+len(c.Analysis.MV)) // the holes below
	w := func(format string, args ...interface{}) {
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	// cut puts a hole at the end of the text so far.
	cut := func(h p4Hole) { t.cuts = append(t.cuts, p4Cut{at: b.Len(), hole: h}) }
	// hole emits one line whose only varying part is a per-switch value.
	hole := func(before string, h p4Hole, after string) {
		b.WriteString(before)
		cut(h)
		b.WriteString(after)
		b.WriteByte('\n')
	}

	hole("// contra: device-local program for switch ", holeName, "")
	w("// policy: %s", policy)
	w("// generated by the contra compiler; do not edit")
	w("#include <core.p4>")
	w("#include <v1model.p4>")
	w("")
	w("typedef bit<%d> dst_t;", dstBits)
	w("typedef bit<%d> tag_t;", tagBits)
	w("typedef bit<%d> pid_t;", pidBits)
	w("typedef bit<%d> ver_t;", versionBits)
	w("typedef bit<%d> metric_t;", metricBits)
	w("typedef bit<9>  port_t;")
	w("")
	w("header ethernet_t {")
	w("    bit<48> dst_addr;")
	w("    bit<48> src_addr;")
	w("    bit<16> ether_type;")
	w("}")
	w("")
	w("// Probe header: origin, probe class, version, product-graph tag,")
	w("// and the policy's metric vector (%d metrics).", len(c.Analysis.MV))
	w("header contra_probe_t {")
	w("    dst_t origin;")
	w("    pid_t pid;")
	w("    ver_t version;")
	w("    tag_t tag;")
	for _, m := range c.Analysis.MV {
		w("    metric_t mv_%s;", m.String())
	}
	w("}")
	w("")
	w("// Data packets carry the chosen tag, pid, and a TTL for loop")
	w("// detection (§5.5).")
	w("header contra_tag_t {")
	w("    dst_t dst;")
	w("    pid_t pid;")
	w("    tag_t tag;")
	w("    bit<8> ttl;")
	w("}")
	w("")
	w("struct headers_t {")
	w("    ethernet_t     ethernet;")
	w("    contra_probe_t probe;")
	w("    contra_tag_t   tag;")
	w("}")
	w("")
	w("struct metadata_t {")
	w("    tag_t  local_vnode;")
	w("    bit<1> probe_better;")
	w("}")
	w("")
	w("parser ContraParser(packet_in pkt, out headers_t hdr,")
	w("                    inout metadata_t meta,")
	w("                    inout standard_metadata_t std) {")
	w("    state start {")
	w("        pkt.extract(hdr.ethernet);")
	w("        transition select(hdr.ethernet.ether_type) {")
	w("            0x88b5: parse_probe;")
	w("            0x88b6: parse_tag;")
	w("            default: accept;")
	w("        }")
	w("    }")
	w("    state parse_probe { pkt.extract(hdr.probe); transition accept; }")
	w("    state parse_tag   { pkt.extract(hdr.tag);   transition accept; }")
	w("}")
	w("")

	// Registers backing the runtime-populated tables.
	w("control ContraIngress(inout headers_t hdr, inout metadata_t meta,")
	w("                      inout standard_metadata_t std) {")
	w("    // FwdT: best metric vector, next tag, next hop, version per")
	w("    // (origin, tag, pid); hash-indexed register arrays.")
	for _, m := range c.Analysis.MV {
		hole("    register<metric_t>(", holeFwdSlots, ") fwd_mv_"+m.String()+";")
	}
	hole("    register<tag_t>(", holeFwdSlots, ")    fwd_ntag;")
	hole("    register<bit<9>>(", holeFwdSlots, ")   fwd_nhop;")
	hole("    register<ver_t>(", holeFwdSlots, ")    fwd_version;")
	w("    // BestT: overall best (tag, pid) per origin (the asterisk).")
	hole("    register<tag_t>(", holeBestSlots, ") best_tag;")
	hole("    register<pid_t>(", holeBestSlots, ") best_pid;")
	w("    // Policy-aware flowlet state, keyed (tag, pid, flowlet hash).")
	w("    register<bit<9>>(%d)  flowlet_port;", flowletEntries)
	w("    register<tag_t>(%d)   flowlet_tag;", flowletEntries)
	w("    register<bit<%d>>(%d) flowlet_time;", timeBits, flowletEntries)
	w("    // Loop detection: min/max TTL per packet hash (§5.5).")
	w("    register<bit<8>>(%d) loop_minttl;", loopEntries)
	w("    register<bit<8>>(%d) loop_maxttl;", loopEntries)
	w("")
	w("    action drop() { mark_to_drop(std); }")
	w("")
	w("    action set_local_vnode(tag_t v) { meta.local_vnode = v; }")
	w("")
	w("    // NEXTPGNODE (Fig. 7): ingress port identifies the sending")
	w("    // neighbor; together with the probe's tag (the sender's")
	w("    // virtual node) it determines our virtual node. Entries are")
	w("    // const: they encode the product graph.")
	w("    table tag_transition {")
	w("        key = { std.ingress_port: exact; hdr.probe.tag: exact; }")
	w("        actions = { set_local_vnode; drop; }")
	w("        const default_action = drop();")
	w("        const entries = {")
	cut(holeTransitions)
	w("        }")
	w("    }")
	w("")
	w("    // Probe multicast along product-graph out-edges: the")
	w("    // multicast group id is the local virtual node.")
	w("    action set_mcast(bit<16> grp) { std.mcast_grp = grp; }")
	w("    table probe_mcast {")
	w("        key = { meta.local_vnode: exact; }")
	w("        actions = { set_mcast; drop; }")
	w("        const default_action = drop();")
	w("        const entries = {")
	cut(holeMcast)
	w("        }")
	w("    }")
	w("")
	// UPDATEMVEC: one action per metric in the policy's vector, using
	// the per-port utilization registers the traffic manager maintains.
	hole("    register<metric_t>(", holePortUtil, ") port_util;")
	w("    action fold_metrics() {")
	for _, m := range c.Analysis.MV {
		switch m.String() {
		case "util":
			w("        metric_t u;")
			w("        port_util.read(u, (bit<32>)std.ingress_port);")
			w("        if (u > hdr.probe.mv_util) { hdr.probe.mv_util = u; }")
		case "lat":
			w("        hdr.probe.mv_lat = hdr.probe.mv_lat + PORT_DELAY[std.ingress_port];")
		case "len":
			w("        hdr.probe.mv_len = hdr.probe.mv_len + 1;")
		}
	}
	w("    }")
	w("")
	w("    // PROCESSPROBE (Fig. 7) with the §5.1 version gate and the")
	w("    // DSDV-style upstream-refresh rule; index is the hash of")
	w("    // (origin, local vnode, pid).")
	w("    action probe_compare_and_update(bit<32> idx) {")
	w("        ver_t v; fwd_version.read(v, idx);")
	w("        if (hdr.probe.version >= v) { meta.probe_better = 1; }")
	for _, m := range c.Analysis.MV {
		w("        fwd_mv_%s.write(idx, hdr.probe.mv_%s);", m.String(), m.String())
	}
	w("        fwd_ntag.write(idx, hdr.probe.tag);")
	w("        fwd_nhop.write(idx, std.ingress_port);")
	w("        fwd_version.write(idx, hdr.probe.version);")
	w("    }")
	w("")
	w("    apply {")
	w("        if (hdr.probe.isValid()) {")
	w("            // UPDATEMVEC, then compare f(pid, mv) against FwdT,")
	w("            // update BestT, retag, and multicast (PROCESSPROBE).")
	w("            fold_metrics();")
	w("            tag_transition.apply();")
	w("            bit<32> idx = ((bit<32>)hdr.probe.origin << 8) |")
	w("                ((bit<32>)meta.local_vnode << 4) | (bit<32>)hdr.probe.pid;")
	w("            probe_compare_and_update(idx);")
	w("            if (meta.probe_better == 1) {")
	w("                best_tag.write((bit<32>)hdr.probe.origin, meta.local_vnode);")
	w("                best_pid.write((bit<32>)hdr.probe.origin, hdr.probe.pid);")
	w("                hdr.probe.tag = meta.local_vnode;")
	w("                probe_mcast.apply();")
	w("            } else { drop(); }")
	w("        } else if (hdr.tag.isValid()) {")
	w("            // SWIFORWARDPKT with policy-aware flowlet switching")
	w("            // (§5.3) and lazy loop breaking (§5.5).")
	w("            hdr.tag.ttl = hdr.tag.ttl - 1;")
	w("            if (hdr.tag.ttl == 0) { drop(); return; }")
	w("            bit<32> lidx = (bit<32>)(hash_pkt() %% %d);", loopEntries)
	w("            bit<8> mn; loop_minttl.read(mn, lidx);")
	w("            bit<8> mx; loop_maxttl.read(mx, lidx);")
	w("            if (hdr.tag.ttl < mn) { loop_minttl.write(lidx, hdr.tag.ttl); mn = hdr.tag.ttl; }")
	w("            if (hdr.tag.ttl > mx) { loop_maxttl.write(lidx, hdr.tag.ttl); mx = hdr.tag.ttl; }")
	w("            bit<32> fidx = (bit<32>)(hash_flowlet() %% %d);", flowletEntries)
	w("            bit<%d> tlast; flowlet_time.read(tlast, fidx);", timeBits)
	w("            bit<%d> nowts = (bit<%d>)std.ingress_global_timestamp;", timeBits, timeBits)
	w("            if (mx - mn >= %d || nowts - tlast > FLOWLET_TIMEOUT) {", LoopTTLDelta)
	w("                // Expired or looping: re-pin from FwdT.")
	w("                bit<32> idx = ((bit<32>)hdr.tag.dst << 8) |")
	w("                    ((bit<32>)hdr.tag.tag << 4) | (bit<32>)hdr.tag.pid;")
	w("                bit<9> nh; fwd_nhop.read(nh, idx);")
	w("                tag_t nt; fwd_ntag.read(nt, idx);")
	w("                flowlet_port.write(fidx, nh);")
	w("                flowlet_tag.write(fidx, nt);")
	w("            }")
	w("            flowlet_time.write(fidx, nowts);")
	w("            bit<9> outp; flowlet_port.read(outp, fidx);")
	w("            flowlet_tag.read(hdr.tag.tag, fidx);")
	w("            std.egress_spec = outp;")
	w("        }")
	w("    }")
	w("}")
	w("")
	w("control ContraEgress(inout headers_t hdr, inout metadata_t meta,")
	w("                     inout standard_metadata_t std) { apply { } }")
	w("")
	w("control ContraDeparser(packet_out pkt, in headers_t hdr) {")
	w("    apply { pkt.emit(hdr.ethernet); pkt.emit(hdr.probe); pkt.emit(hdr.tag); }")
	w("}")
	w("")
	w("V1Switch(ContraParser(), ContraIngress(), ContraEgress(),")
	w("         ContraDeparser()) main;")
	t.text = b.String()
}

// transitionEntry is one tag_transition const entry: a probe arriving
// on port with the sender's tag utag (virtual node u, on switch uname)
// puts this switch in local virtual node vtag.
type transitionEntry struct {
	u                pg.NodeID
	port, utag, vtag int32
	uname            string
}

// The literal pieces of one tag_transition entry line:
//
//	(port, utag) : set_local_vnode(vtag); // <uname><utag> -> <name><vtag>
const (
	transOpen    = "            ("
	transSep     = ", "
	transAction  = ") : set_local_vnode("
	transComment = "); // "
	transArrow   = " -> "
	transLitLen  = len(transOpen) + len(transSep) + len(transAction) + len(transComment) + len(transArrow) + len("\n")
)

// transitionRows calls f on each of sw's tag transition entries in the
// product graph's order: sp.VNodes, then each one's in-edges. Each In
// list is ascending, so that order is the printed one (by sender
// virtual node) unless several virtual nodes hear senders whose ids
// interleave.
func (c *Compiled) transitionRows(sw topo.NodeID, sp *SwitchProgram, f func(e transitionEntry)) {
	for _, v := range sp.VNodes {
		vtag := c.PG.Node(v).LocalTag
		for _, u := range c.PG.In(v) {
			un := c.PG.Node(u)
			f(transitionEntry{
				u:     u,
				port:  int32(c.Topo.PortTo(sw, un.Topo)),
				utag:  un.LocalTag,
				vtag:  vtag,
				uname: c.Topo.Node(un.Topo).Name,
			})
		}
	}
}

// printedLen is the number of bytes writeTransition writes for e on
// switch name.
func (e *transitionEntry) printedLen(name string) int {
	return transLitLen + decLen(int(e.port)) + 2*decLen(int(e.utag)) + 2*decLen(int(e.vtag)) +
		len(e.uname) + len(name)
}

// writeTransitionTable prints sw's tag transition table by sender
// virtual node: straight from the product graph when planP4 found that
// order already sorted, else through a sorted copy.
func (c *Compiled) writeTransitionTable(b *strings.Builder, sw topo.NodeID, sp *SwitchProgram, p *p4Plan) {
	if p.transSorted {
		c.transitionRows(sw, sp, func(e transitionEntry) { writeTransition(b, &e, p.name) })
		return
	}
	entries := make([]transitionEntry, 0, c.transitions(sp))
	c.transitionRows(sw, sp, func(e transitionEntry) { entries = append(entries, e) })
	slices.SortFunc(entries, func(a, b transitionEntry) int { return cmp.Compare(a.u, b.u) })
	for i := range entries {
		writeTransition(b, &entries[i], p.name)
	}
}

func writeTransition(b *strings.Builder, e *transitionEntry, name string) {
	b.WriteString(transOpen)
	writeInt(b, int(e.port))
	b.WriteString(transSep)
	writeInt(b, int(e.utag))
	b.WriteString(transAction)
	writeInt(b, int(e.vtag))
	b.WriteString(transComment)
	b.WriteString(e.uname)
	writeInt(b, int(e.utag))
	b.WriteString(transArrow)
	b.WriteString(name)
	writeInt(b, int(e.vtag))
	b.WriteByte('\n')
}

// The literal pieces of one probe_mcast entry line:
//
//	tag : set_mcast(tag+1); // ports [p0 p1 ...]
const (
	mcastOpen   = "            "
	mcastAction = " : set_mcast("
	mcastPorts  = "); // ports ["
	mcastClose  = "]\n"
	mcastLitLen = len(mcastOpen) + len(mcastAction) + len(mcastPorts) + len(mcastClose)
)

// mcastLen is the number of bytes writeMcast writes for virtual node v.
func (c *Compiled) mcastLen(v pg.NodeID) int {
	tag, ports := int(c.PG.Node(v).LocalTag), c.ProbeOut(v)
	n := mcastLitLen + decLen(tag) + decLen(tag+1) + max(len(ports)-1, 0)
	for _, port := range ports {
		n += decLen(port)
	}
	return n
}

// writeMcastTable prints the switch's probe multicast table by virtual
// node: in sp.VNodes' order when planP4 found it ascending, else through
// a sorted copy.
func (c *Compiled) writeMcastTable(b *strings.Builder, sp *SwitchProgram, p *p4Plan) {
	vnodes := sp.VNodes
	if !p.mcastSorted {
		vnodes = slices.Clone(vnodes)
		slices.Sort(vnodes)
	}
	for _, v := range vnodes {
		c.writeMcast(b, v)
	}
}

// writeMcast prints virtual node v's probe_mcast const entry: probes
// leaving its local tag multicast to its probe-out ports.
func (c *Compiled) writeMcast(b *strings.Builder, v pg.NodeID) {
	tag := int(c.PG.Node(v).LocalTag)
	b.WriteString(mcastOpen)
	writeInt(b, tag)
	b.WriteString(mcastAction)
	writeInt(b, tag+1)
	b.WriteString(mcastPorts)
	for i, port := range c.ProbeOut(v) {
		if i > 0 {
			b.WriteByte(' ')
		}
		writeInt(b, port)
	}
	b.WriteString(mcastClose)
}

// writeInt appends v in decimal without going through fmt.
func writeInt(b *strings.Builder, v int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(v), 10))
}

// decLen is the number of bytes writeInt writes for v.
func decLen(v int) int {
	n := 1
	if v < 0 {
		n, v = 2, -v
	}
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

func fwdSlots(sp *SwitchProgram, c *Compiled) int {
	return max(sp.ReachableOrigins*len(sp.VNodes)*c.Analysis.NumPids(), 1)
}
