package netsim

import "fmt"

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int {
	return e.cal.n + e.wheelCount + len(e.overflow)
}

// FlowRate reports the current sending rate of a flow in bps (for tests).
// Window flows report cwnd/RTT-free pacing as 0 (they are ACK-clocked).
func (n *Network) FlowRate(id int32) float64 {
	for _, h := range n.hosts {
		if fs, ok := h.flows[id]; ok {
			if fs.win != nil {
				return 0
			}
			return fs.cc.rc
		}
	}
	return 0
}

// FlowCwnd reports a window flow's current congestion window in bytes.
func (n *Network) FlowCwnd(id int32) float64 {
	for _, h := range n.hosts {
		if fs, ok := h.flows[id]; ok && fs.win != nil {
			return fs.win.cwnd
		}
	}
	return 0
}

// LeafSpine builds a two-tier Clos: `leaves` leaf switches each serving
// `hostsPerLeaf` hosts, fully meshed to `spines` spine switches. This is
// the other common data-center fabric besides the fat-tree; cross-leaf
// traffic has `spines`-way ECMP.
func LeafSpine(leaves, spines, hostsPerLeaf int) (*Topology, error) {
	if leaves < 1 || spines < 1 || hostsPerLeaf < 1 {
		return nil, fmt.Errorf("netsim: leaf-spine needs positive dimensions, got %d/%d/%d", leaves, spines, hostsPerLeaf)
	}
	hosts := leaves * hostsPerLeaf
	t := &Topology{Hosts: hosts, Switches: leaves + spines}
	t.Ports = make([][]PortDef, t.Nodes())
	leafID := func(l int) NodeID { return NodeID(hosts + l) }
	spineID := func(s int) NodeID { return NodeID(hosts + leaves + s) }
	for h := 0; h < hosts; h++ {
		t.link(NodeID(h), leafID(h/hostsPerLeaf))
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			t.link(leafID(l), spineID(s))
		}
	}
	if err := t.computeRoutes(); err != nil {
		return nil, err
	}
	return t, nil
}

// LeafSpineOversub builds a two-tier Clos with explicit oversubscription:
// each of `leaves` leaf switches serves hostsPerLeaf hosts on its
// downlinks but trunks only hostsPerLeaf/oversub uplinks, spread evenly
// across `spines` spine switches — parallel trunk links per leaf-spine
// pair when the uplink count exceeds the spine count (ports are a
// multigraph; BFS/ECMP treat each parallel link as one more equal-cost
// hop). oversub = 1 is a non-blocking fabric; oversub = 4 is the classic
// congested data-center core where microbursts live. hostsPerLeaf must be
// a positive multiple of oversub × spines so trunking divides evenly.
func LeafSpineOversub(spines, leaves, hostsPerLeaf, oversub int) (*Topology, error) {
	if spines < 1 || leaves < 1 || hostsPerLeaf < 1 || oversub < 1 {
		return nil, fmt.Errorf("netsim: leaf-spine-oversub needs positive dimensions, got %d/%d/%d/%d",
			spines, leaves, hostsPerLeaf, oversub)
	}
	if hostsPerLeaf%(oversub*spines) != 0 {
		return nil, fmt.Errorf("netsim: hostsPerLeaf (%d) must be a multiple of oversub×spines (%d×%d)",
			hostsPerLeaf, oversub, spines)
	}
	trunk := hostsPerLeaf / (oversub * spines) // parallel links per leaf-spine pair
	hosts := leaves * hostsPerLeaf
	t := &Topology{Hosts: hosts, Switches: leaves + spines}
	t.Ports = make([][]PortDef, t.Nodes())
	leafID := func(l int) NodeID { return NodeID(hosts + l) }
	spineID := func(s int) NodeID { return NodeID(hosts + leaves + s) }
	for h := 0; h < hosts; h++ {
		t.link(NodeID(h), leafID(h/hostsPerLeaf))
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			for k := 0; k < trunk; k++ {
				t.link(leafID(l), spineID(s))
			}
		}
	}
	if err := t.computeRoutes(); err != nil {
		return nil, err
	}
	return t, nil
}
