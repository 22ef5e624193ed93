package netsim

import "fmt"

// NodeID indexes nodes: 0..Hosts-1 are end hosts, the rest are switches.
type NodeID int

// PortDef is one directed attachment point of a node.
type PortDef struct {
	Peer     NodeID
	PeerPort int
}

// Topology is an arbitrary graph of hosts and switches with shortest-path
// ECMP routing toward every host.
type Topology struct {
	Hosts    int
	Switches int
	// Ports[n] lists node n's ports.
	Ports [][]PortDef
	// nextHops[n][h] lists the ECMP candidate port indices at node n
	// toward host h.
	nextHops [][][]int16
}

// Nodes reports the total node count.
func (t *Topology) Nodes() int { return t.Hosts + t.Switches }

// IsHost reports whether n is an end host.
func (t *Topology) IsHost(n NodeID) bool { return int(n) < t.Hosts }

// NextHops returns the ECMP candidate ports at node n toward host dst.
func (t *Topology) NextHops(n NodeID, dst int) []int16 { return t.nextHops[n][dst] }

// link adds a bidirectional link between a and b.
func (t *Topology) link(a, b NodeID) {
	pa, pb := len(t.Ports[a]), len(t.Ports[b])
	t.Ports[a] = append(t.Ports[a], PortDef{Peer: b, PeerPort: pb})
	t.Ports[b] = append(t.Ports[b], PortDef{Peer: a, PeerPort: pa})
}

// computeRoutes fills nextHops by a BFS from every host.
func (t *Topology) computeRoutes() error {
	n := t.Nodes()
	t.nextHops = make([][][]int16, n)
	for i := range t.nextHops {
		t.nextHops[i] = make([][]int16, t.Hosts)
	}
	for h := 0; h < t.Hosts; h++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[h] = 0
		queue := []NodeID{NodeID(h)}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, p := range t.Ports[cur] {
				if dist[p.Peer] < 0 {
					dist[p.Peer] = dist[cur] + 1
					queue = append(queue, p.Peer)
				}
			}
		}
		for v := 0; v < n; v++ {
			if v == h {
				continue
			}
			if dist[v] < 0 {
				return fmt.Errorf("netsim: host %d unreachable from node %d", h, v)
			}
			for pi, p := range t.Ports[v] {
				if dist[p.Peer] == dist[v]-1 {
					t.nextHops[v][h] = append(t.nextHops[v][h], int16(pi))
				}
			}
		}
	}
	return nil
}

// FatTree builds the k-ary fat-tree of the evaluation (§7 uses k=4:
// 16 hosts, 8 edge, 8 aggregation and 4 core switches).
func FatTree(k int) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("netsim: fat-tree arity must be even and ≥ 2, got %d", k)
	}
	half := k / 2
	hosts := k * half * half // k pods × k/2 edges × k/2 hosts
	edges := k * half        // per pod: k/2
	aggs := k * half         //
	cores := half * half
	t := &Topology{Hosts: hosts, Switches: edges + aggs + cores}
	t.Ports = make([][]PortDef, t.Nodes())

	edgeID := func(pod, i int) NodeID { return NodeID(hosts + pod*half + i) }
	aggID := func(pod, i int) NodeID { return NodeID(hosts + edges + pod*half + i) }
	coreID := func(i int) NodeID { return NodeID(hosts + edges + aggs + i) }

	// Hosts ↔ edges.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for hh := 0; hh < half; hh++ {
				host := NodeID(pod*half*half + e*half + hh)
				t.link(host, edgeID(pod, e))
			}
		}
	}
	// Edges ↔ aggs (full bipartite within a pod).
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				t.link(edgeID(pod, e), aggID(pod, a))
			}
		}
	}
	// Aggs ↔ cores: agg i of each pod connects to cores [i·k/2, (i+1)·k/2).
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				t.link(aggID(pod, a), coreID(a*half+c))
			}
		}
	}
	if err := t.computeRoutes(); err != nil {
		return nil, err
	}
	return t, nil
}

// Dumbbell builds a minimal two-host/one-switch-pair topology with a single
// bottleneck link, used by the testbed-style experiments (Figures 1, 9, 13)
// and unit tests. senders hosts share one bottleneck toward one receiver.
func Dumbbell(senders int) (*Topology, error) {
	if senders < 1 {
		return nil, fmt.Errorf("netsim: need ≥ 1 sender, got %d", senders)
	}
	hosts := senders + 1 // receiver is host index `senders`
	t := &Topology{Hosts: hosts, Switches: 2}
	t.Ports = make([][]PortDef, t.Nodes())
	left, right := NodeID(hosts), NodeID(hosts+1)
	for s := 0; s < senders; s++ {
		t.link(NodeID(s), left)
	}
	t.link(left, right) // the bottleneck
	t.link(right, NodeID(senders))
	if err := t.computeRoutes(); err != nil {
		return nil, err
	}
	return t, nil
}
