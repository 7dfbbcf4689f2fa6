package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"contra/internal/pg"
	"contra/internal/topo"
)

// The bodies this package had before the compiler back end was made
// linear in the product graph, kept as the references the differential
// tests compare against: switch programs built into maps, reachability
// counted into nested maps with a fresh visited slice per origin, and P4
// emitted with one Fprintf per line from the map-built programs.

// refSwitchProgram is a switch's program as Compile built it before the
// programs went flat: the switch's virtual nodes copied, the tag
// transitions and probe-out ports in maps keyed by virtual node.
type refSwitchProgram struct {
	Switch       topo.NodeID
	VNodes       []pg.NodeID
	InTransition map[pg.NodeID]pg.NodeID
	ProbeOut     map[pg.NodeID][]int
	Origin       *OriginSpec
}

// referenceOrigins is the set of switches that may originate probes,
// read from the other side: the switch at the end of every host's one
// link, or every switch when no host exists.
func referenceOrigins(t *topo.Graph) map[topo.NodeID]bool {
	out := make(map[topo.NodeID]bool)
	hosts := 0
	for _, n := range t.Nodes() {
		if n.Kind != topo.Host {
			continue
		}
		hosts++
		for _, l := range t.Links() {
			if l.A == n.ID {
				out[l.B] = true
			}
			if l.B == n.ID {
				out[l.A] = true
			}
		}
	}
	if hosts == 0 {
		for _, x := range t.Switches() {
			out[x] = true
		}
	}
	return out
}

// referenceSwitchPrograms is Compile's per-switch loop as it was, with
// origins limited to referenceOrigins.
func (c *Compiled) referenceSwitchPrograms() map[topo.NodeID]*refSwitchProgram {
	t, graph := c.Topo, c.PG
	origins := referenceOrigins(t)
	pids := make([]int, c.Analysis.NumPids())
	for i := range pids {
		pids[i] = i
	}
	progs := make(map[topo.NodeID]*refSwitchProgram)
	for _, x := range t.Switches() {
		vnodes := append([]pg.NodeID(nil), graph.VirtualNodes(x)...)
		inEdges := 0
		for _, v := range vnodes {
			inEdges += len(graph.In(v))
		}
		sp := &refSwitchProgram{
			Switch:       x,
			VNodes:       vnodes,
			InTransition: make(map[pg.NodeID]pg.NodeID, inEdges),
			ProbeOut:     make(map[pg.NodeID][]int, len(vnodes)),
		}
		for _, v := range sp.VNodes {
			// Incoming: probes from neighbor virtual node u transition
			// to v.
			for _, u := range graph.In(v) {
				sp.InTransition[u] = v
			}
			// Outgoing: multicast to the ports leading to successor
			// switches.
			var ports []int
			if n := len(graph.Out(v)); n > 0 {
				ports = make([]int, 0, n)
			}
			for _, u := range graph.Out(v) {
				nb := graph.Node(u).Topo
				if port := t.PortTo(x, nb); port >= 0 {
					ports = append(ports, port)
				}
			}
			sort.Ints(ports)
			sp.ProbeOut[v] = ports
		}
		if send, ok := graph.SendState(x); ok && origins[x] {
			sp.Origin = &OriginSpec{VNode: send, Pids: pids}
		}
		progs[x] = sp
	}
	return progs
}

func (c *Compiled) referenceCountReachability() {
	reach := make(map[topo.NodeID]map[topo.NodeID]bool) // switch -> set of origins
	origins := referenceOrigins(c.Topo)
	for _, x := range c.Topo.Switches() {
		send, ok := c.PG.SendState(x)
		if !ok || !origins[x] {
			continue
		}
		seen := make([]bool, c.PG.NumNodes())
		stack := []pg.NodeID{send}
		seen[send] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sw := c.PG.Node(v).Topo
			if reach[sw] == nil {
				reach[sw] = make(map[topo.NodeID]bool)
			}
			reach[sw][x] = true
			for _, u := range c.PG.Out(v) {
				if !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
	}
	for sw, origins := range reach {
		if sp := c.Switch(sw); sp != nil {
			sp.ReachableOrigins = len(origins)
		}
	}
}

func (c *Compiled) referenceGenerateP4(sw topo.NodeID) string {
	sp := c.Switch(sw)
	if sp == nil {
		return ""
	}
	ref := c.referenceSwitchPrograms()[sw]
	name := c.Topo.Node(sw).Name
	tagBits := c.PG.TagBits()
	if tagBits == 0 {
		tagBits = 1
	}

	var b strings.Builder
	w := func(format string, args ...interface{}) {
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}

	w("// contra: device-local program for switch %s", name)
	w("// policy: %s", c.Policy.String())
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
		w("    register<metric_t>(%d) fwd_mv_%s;", referenceFwdSlots(sp, c), m.String())
	}
	w("    register<tag_t>(%d)    fwd_ntag;", referenceFwdSlots(sp, c))
	w("    register<bit<9>>(%d)   fwd_nhop;", referenceFwdSlots(sp, c))
	w("    register<ver_t>(%d)    fwd_version;", referenceFwdSlots(sp, c))
	w("    // BestT: overall best (tag, pid) per origin (the asterisk).")
	w("    register<tag_t>(%d) best_tag;", referenceMaxInt(sp.ReachableOrigins, 1))
	w("    register<pid_t>(%d) best_pid;", referenceMaxInt(sp.ReachableOrigins, 1))
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
	inKeys := make([]int, 0, len(ref.InTransition))
	for u := range ref.InTransition {
		inKeys = append(inKeys, int(u))
	}
	sort.Ints(inKeys)
	for _, u := range inKeys {
		uid := pg.NodeID(u)
		v := ref.InTransition[uid]
		port := c.Topo.PortTo(sw, c.PG.Node(uid).Topo)
		w("            (%d, %d) : set_local_vnode(%d); // %s -> %s",
			port, c.PG.Node(uid).LocalTag,
			c.PG.Node(v).LocalTag, c.referenceVnodeName(uid), c.referenceVnodeName(v))
	}
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
	vs := append([]pg.NodeID(nil), ref.VNodes...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, v := range vs {
		w("            %d : set_mcast(%d); // ports %v",
			c.PG.Node(v).LocalTag, c.PG.Node(v).LocalTag+1, ref.ProbeOut[v])
	}
	w("        }")
	w("    }")
	w("")
	// UPDATEMVEC: one action per metric in the policy's vector, using
	// the per-port utilization registers the traffic manager maintains.
	w("    register<metric_t>(%d) port_util;", referenceMaxInt(len(c.Topo.Ports(sw)), 1))
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
	return b.String()
}

func (c *Compiled) referenceVnodeName(v pg.NodeID) string {
	n := c.PG.Node(v)
	return fmt.Sprintf("%s%d", c.Topo.Node(n.Topo).Name, n.LocalTag)
}

func referenceFwdSlots(sp *SwitchProgram, c *Compiled) int {
	n := sp.ReachableOrigins * len(sp.VNodes) * c.Analysis.NumPids()
	if n < 1 {
		n = 1
	}
	return n
}

func referenceMaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestSwitchProgramsMatchReference holds every switch program to the
// map-built reference: its virtual nodes in order, one in-transition per
// product-graph in-edge of them with no sender twice — exactly the pairs
// the InTransition map held — the probe-out ports of each virtual node,
// and the origin spec.
func TestSwitchProgramsMatchReference(t *testing.T) {
	cells := p4Cells(t)
	for _, g := range []*topo.Graph{topo.Fattree(6, 0), topo.PaperDataCenter(), topo.Fig4Square(), topo.Fig5Diamond(), topo.Fig8Zigzag()} {
		for _, src := range []string{muPolicy, wpPolicy(g), caPolicy} {
			cells = append(cells, compile(t, g, src))
		}
	}
	for _, c := range cells {
		ref := c.referenceSwitchPrograms()
		for _, sw := range c.Topo.Switches() {
			sp, want := c.Switch(sw), ref[sw]
			where := fmt.Sprintf("%s on %s, switch %s", c.Policy, c.Topo.Name, c.Topo.Node(sw).Name)
			if sp == nil || sp.Switch != sw {
				t.Fatalf("%s: no program", where)
			}
			if !slices.Equal(sp.VNodes, want.VNodes) {
				t.Fatalf("%s: virtual nodes %v, reference %v", where, sp.VNodes, want.VNodes)
			}
			pairs := 0
			senders := make(map[pg.NodeID]bool)
			for _, v := range sp.VNodes {
				for _, u := range c.PG.In(v) {
					if w, ok := want.InTransition[u]; !ok || w != v || senders[u] {
						t.Fatalf("%s: in-transition %d -> %d, reference %d (%v), sender seen before %v", where, u, v, w, ok, senders[u])
					}
					senders[u] = true
					pairs++
				}
				if got := c.ProbeOut(v); !slices.Equal(got, want.ProbeOut[v]) {
					t.Fatalf("%s: virtual node %d multicasts to %v, reference %v", where, v, got, want.ProbeOut[v])
				}
			}
			if pairs != len(want.InTransition) || len(sp.VNodes) != len(want.ProbeOut) {
				t.Fatalf("%s: %d in-transitions and %d probe-out lists, reference %d and %d",
					where, pairs, len(sp.VNodes), len(want.InTransition), len(want.ProbeOut))
			}
			if (sp.Origin == nil) != (want.Origin == nil) ||
				sp.Origin != nil && (sp.Origin.VNode != want.Origin.VNode || !slices.Equal(sp.Origin.Pids, want.Origin.Pids)) {
				t.Fatalf("%s: origin %+v, reference %+v", where, sp.Origin, want.Origin)
			}
		}
	}
}
