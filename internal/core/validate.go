package core

import "fmt"

// Validate checks the structural invariants of the compiled artifact —
// the properties §4.2 relies on for policy compliance. It returns the
// first violation found, or nil. The compiler's tests run it on every
// compilation; it is also available to downstream users as a sanity
// gate before deployment.
//
// Invariants:
//  1. Every switch program's virtual nodes live on that switch.
//  2. Every tag transition — a product-graph in-edge of one of them —
//     comes from a virtual node at a neighboring switch whose
//     transition at this switch is that virtual node.
//  3. Every ProbeOut port leads to a switch holding the product-graph
//     successor of the virtual node.
//  4. Origins' probe-sending states are at their own switch, and carry
//     one pid per probe class.
//  5. Tag assignments are unique per switch and within the advertised
//     tag-bit budget.
func (c *Compiled) Validate() error {
	pids := c.Analysis.NumPids()
	seenTags := make([]bool, c.PG.MaxTagsPerSwitch())
	for i := range c.programs {
		sp := &c.programs[i]
		sw := sp.Switch
		name := c.Topo.Node(sw).Name
		clear(seenTags)
		for _, v := range sp.VNodes {
			node := c.PG.Node(v)
			if node.Topo != sw {
				return fmt.Errorf("core: %s lists virtual node %d of switch %s",
					name, v, c.Topo.Node(node.Topo).Name)
			}
			if bits := c.PG.TagBits(); node.LocalTag < 0 || int(node.LocalTag) >= len(seenTags) ||
				bits > 0 && int(node.LocalTag) >= 1<<bits {
				return fmt.Errorf("core: %s tag %d exceeds %d-bit budget", name, node.LocalTag, bits)
			}
			if seenTags[node.LocalTag] {
				return fmt.Errorf("core: %s has duplicate local tag %d", name, node.LocalTag)
			}
			seenTags[node.LocalTag] = true
			for _, u := range c.PG.In(v) {
				got, ok := c.PG.Transition(u, sw)
				if !ok || got != v {
					return fmt.Errorf("core: %s transition %d->%d not a product graph edge", name, u, v)
				}
				uTopo := c.PG.Node(u).Topo
				if c.Topo.PortTo(sw, uTopo) < 0 {
					return fmt.Errorf("core: %s transition source %s not adjacent",
						name, c.Topo.Node(uTopo).Name)
				}
			}
			for _, port := range c.ProbeOut(v) {
				if port < 0 || port >= len(c.Topo.Ports(sw)) {
					return fmt.Errorf("core: %s probe port %d out of range", name, port)
				}
				peer := c.Topo.Ports(sw)[port].Peer
				if _, ok := c.PG.Transition(v, peer); !ok {
					return fmt.Errorf("core: %s probe port %d leads to %s without a PG edge",
						name, port, c.Topo.Node(peer).Name)
				}
			}
		}
		if sp.Origin != nil {
			if c.PG.Node(sp.Origin.VNode).Topo != sw {
				return fmt.Errorf("core: %s origin vnode not local", name)
			}
			if !c.PG.Node(sp.Origin.VNode).Origin {
				return fmt.Errorf("core: %s origin vnode is not a probe-sending state", name)
			}
			if len(sp.Origin.Pids) != pids {
				return fmt.Errorf("core: %s originates %d pids, policy has %d",
					name, len(sp.Origin.Pids), pids)
			}
		}
	}
	return nil
}
