package netsim

import (
	"reflect"
	"testing"
)

// Property tests for the fabric constructors: NextHops must be exactly the
// shortest-path ECMP set — every candidate port leads to a neighbor
// strictly one hop closer to the destination (which implies loop-freedom:
// distance decreases monotonically along any forwarding path), and the
// fan-out multiplicities must match the fabric's structure.

// bfsDist computes hop distances to dst independently of computeRoutes.
func bfsDist(t *Topology, dst NodeID) []int {
	dist := make([]int, t.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []NodeID{dst}
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
	return dist
}

// checkShortestPathECMP verifies, for every node and each sampled
// destination host, that NextHops is precisely the set of ports whose peer
// is one hop closer to the destination.
func checkShortestPathECMP(t *testing.T, topo *Topology, dsts []int) {
	t.Helper()
	for _, dst := range dsts {
		dist := bfsDist(topo, NodeID(dst))
		for v := 0; v < topo.Nodes(); v++ {
			if v == dst {
				continue
			}
			hops := topo.NextHops(NodeID(v), dst)
			if len(hops) == 0 {
				t.Fatalf("node %d has no next hop toward h%d", v, dst)
			}
			// Every listed port descends the distance gradient...
			seen := make(map[int16]bool, len(hops))
			for _, pi := range hops {
				if seen[pi] {
					t.Errorf("node %d lists port %d twice toward h%d", v, pi, dst)
				}
				seen[pi] = true
				peer := topo.Ports[v][pi].Peer
				if dist[peer] != dist[v]-1 {
					t.Errorf("node %d port %d toward h%d reaches node %d at distance %d, want %d",
						v, pi, dst, peer, dist[peer], dist[v]-1)
				}
			}
			// ...and every descending port is listed (full ECMP set).
			for pi, p := range topo.Ports[v] {
				if dist[p.Peer] == dist[v]-1 && !seen[int16(pi)] {
					t.Errorf("node %d port %d (to node %d) descends toward h%d but is not an ECMP candidate",
						v, pi, p.Peer, dst)
				}
			}
		}
	}
}

// sampleDsts picks a spread of destination hosts without testing all
// hosts² pairs on big fabrics.
func sampleDsts(hosts, n int) []int {
	if n >= hosts {
		n = hosts
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i*hosts/n)
	}
	return out
}

func TestFatTreeShortestPathECMP(t *testing.T) {
	ks := []int{4, 8}
	if !testing.Short() {
		ks = append(ks, 16)
	}
	for _, k := range ks {
		topo, err := FatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		half := k / 2
		wantHosts := k * half * half
		if topo.Hosts != wantHosts || topo.Switches != k*half*2+half*half {
			t.Fatalf("k=%d: got %d hosts / %d switches", k, topo.Hosts, topo.Switches)
		}
		checkShortestPathECMP(t, topo, sampleDsts(topo.Hosts, 8))

		// ECMP multiplicities: a host in another pod is k/2-way from an
		// edge (any agg) and k/2-way from an agg (any of its cores); the
		// final descent is single-path.
		dst := topo.Hosts - 1 // last host, last pod
		edge0 := NodeID(topo.Hosts)
		agg0 := NodeID(topo.Hosts + k*half)
		if got := len(topo.NextHops(edge0, dst)); got != half {
			t.Errorf("k=%d: edge0 cross-pod fan-out = %d, want %d", k, got, half)
		}
		if got := len(topo.NextHops(agg0, dst)); got != half {
			t.Errorf("k=%d: agg0 cross-pod fan-out = %d, want %d", k, got, half)
		}
		if got := len(topo.NextHops(0, dst)); got != 1 {
			t.Errorf("k=%d: host uplink fan-out = %d, want 1", k, got)
		}
	}
}

func TestLeafSpineShortestPathECMP(t *testing.T) {
	topo, err := LeafSpine(6, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkShortestPathECMP(t, topo, sampleDsts(topo.Hosts, 8))
	// Cross-leaf traffic from a leaf fans out over every spine.
	leaf0 := NodeID(topo.Hosts)
	if got := len(topo.NextHops(leaf0, topo.Hosts-1)); got != 4 {
		t.Errorf("leaf cross-leaf fan-out = %d, want 4 spines", got)
	}
	// Same-leaf traffic goes straight down, one path.
	if got := len(topo.NextHops(leaf0, 1)); got != 1 {
		t.Errorf("leaf same-leaf fan-out = %d, want 1", got)
	}
}

func TestLeafSpineOversubShortestPathECMP(t *testing.T) {
	// 4 spines, 6 leaves, 32 hosts/leaf, 2:1 oversubscription:
	// trunk = 32/(2·4) = 4 parallel links per leaf-spine pair.
	spines, leaves, hostsPerLeaf, oversub := 4, 6, 32, 2
	topo, err := LeafSpineOversub(spines, leaves, hostsPerLeaf, oversub)
	if err != nil {
		t.Fatal(err)
	}
	checkShortestPathECMP(t, topo, sampleDsts(topo.Hosts, 6))

	trunk := hostsPerLeaf / (oversub * spines)
	leaf0 := NodeID(topo.Hosts)
	// Cross-leaf fan-out counts every parallel trunk link to every spine.
	if got := len(topo.NextHops(leaf0, topo.Hosts-1)); got != spines*trunk {
		t.Errorf("leaf cross-leaf fan-out = %d, want %d (spines×trunk)", got, spines*trunk)
	}
	// Each spine descends to the destination leaf over all its trunks.
	spine0 := NodeID(topo.Hosts + leaves)
	if got := len(topo.NextHops(spine0, topo.Hosts-1)); got != trunk {
		t.Errorf("spine descent fan-out = %d, want %d (trunk)", got, trunk)
	}
	// Uplink budget: the leaf has hostsPerLeaf downlinks and
	// hostsPerLeaf/oversub uplinks.
	if got := len(topo.Ports[leaf0]); got != hostsPerLeaf+hostsPerLeaf/oversub {
		t.Errorf("leaf0 port count = %d, want %d", got, hostsPerLeaf+hostsPerLeaf/oversub)
	}
}

func TestLeafSpineOversubValidation(t *testing.T) {
	if _, err := LeafSpineOversub(0, 2, 8, 1); err == nil {
		t.Error("zero spines accepted")
	}
	if _, err := LeafSpineOversub(4, 2, 10, 2); err == nil {
		t.Error("hostsPerLeaf not divisible by oversub×spines accepted")
	}
	if _, err := LeafSpineOversub(2, 2, 8, 2); err != nil {
		t.Errorf("valid oversubscribed fabric rejected: %v", err)
	}
}

// TestOversubFabricSimulates runs a short sharded simulation on the
// oversubscribed leaf-spine to pin that the multigraph (parallel trunk
// links) actually carries traffic end to end at several shard counts.
func TestOversubFabricSimulates(t *testing.T) {
	var serial *Trace
	for _, shards := range []int{1, 3} {
		topo, err := LeafSpineOversub(2, 2, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(topo)
		cfg.Shards = shards
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Cross-leaf incast: hosts 0..3 (leaf 0) → host 8 (leaf 1).
		for s := 0; s < 4; s++ {
			n.AddFlow(FlowSpec{Src: s, Dst: 8, Bytes: 500_000, StartNs: int64(s) * 500})
		}
		n.Record()
		tr := n.Run(2_000_000)
		if tr.Flows[0].RxBytes == 0 {
			t.Fatalf("shards=%d: no bytes delivered across the trunk", shards)
		}
		normalizeShardTrace(tr)
		if serial == nil {
			serial = tr
		} else if !reflect.DeepEqual(serial, tr) {
			t.Errorf("shards=%d: trace differs from serial on oversubscribed fabric", shards)
		}
	}
}
