// Package interconnect models the memory interconnection networks of
// multiprocessor systems (paper Fig. 2): the links between memory
// controllers that remote off-chip requests traverse. A topology is an
// undirected graph over NUMA nodes; the latency of a remote access is the
// hop count between the requesting core's node and the memory's home node
// times the per-hop latency.
//
// The paper's two NUMA machines have, respectively, two directly-connected
// memory controllers (Intel Xeon X5650: direct and one-hop latencies) and
// eight controllers in a partial mesh (AMD Opteron 6172: direct, one-hop
// and two-hop latencies).
package interconnect

import (
	"fmt"
)

// Topology is an undirected interconnect graph over NUMA nodes with
// precomputed all-pairs hop counts.
type Topology struct {
	name       string
	n          int
	hops       [][]int
	hopLatency uint64
}

// New builds a topology of n nodes from an undirected link list and
// computes all-pairs hop distances by BFS. hopLatency is the extra latency
// in cycles charged per hop. The graph must be connected.
func New(name string, n int, links [][2]int, hopLatency uint64) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("interconnect %s: need at least one node", name)
	}
	adj := make([][]int, n)
	for _, l := range links {
		a, b := l[0], l[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("interconnect %s: link %v out of range", name, l)
		}
		if a == b {
			return nil, fmt.Errorf("interconnect %s: self-link on node %d", name, a)
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	t := &Topology{name: name, n: n, hopLatency: hopLatency}
	t.hops = make([][]int, n)
	for src := 0; src < n; src++ {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for i, d := range dist {
			if d < 0 {
				return nil, fmt.Errorf("interconnect %s: node %d unreachable from %d", name, i, src)
			}
		}
		t.hops[src] = dist
	}
	return t, nil
}

// SingleNode returns the degenerate one-node topology of a UMA system.
func SingleNode(name string) *Topology {
	t, _ := New(name, 1, nil, 0)
	return t
}

// Name returns the topology name.
func (t *Topology) Name() string { return t.name }

// Nodes returns the number of NUMA nodes.
func (t *Topology) Nodes() int { return t.n }

// HopLatency returns the per-hop latency in cycles.
func (t *Topology) HopLatency() uint64 { return t.hopLatency }

// Hops returns the hop distance between nodes a and b (0 for a == b).
func (t *Topology) Hops(a, b int) int { return t.hops[a][b] }

// Latency returns the one-way interconnect latency between nodes a and b in
// cycles: Hops(a,b) * HopLatency.
func (t *Topology) Latency(a, b int) uint64 {
	return uint64(t.hops[a][b]) * t.hopLatency
}

// MaxHops returns the network diameter.
func (t *Topology) MaxHops() int {
	max := 0
	for a := 0; a < t.n; a++ {
		for b := 0; b < t.n; b++ {
			if t.hops[a][b] > max {
				max = t.hops[a][b]
			}
		}
	}
	return max
}

// LatencyClasses returns the sorted distinct hop counts between distinct
// node pairs — the paper's "direct, one hop, two hops" classes (excluding
// the a==b direct class for single-node topologies).
func (t *Topology) LatencyClasses() []int {
	present := map[int]bool{}
	for a := 0; a < t.n; a++ {
		for b := 0; b < t.n; b++ {
			present[t.hops[a][b]] = true
		}
	}
	var classes []int
	for h := 0; h <= t.MaxHops(); h++ {
		if present[h] {
			classes = append(classes, h)
		}
	}
	return classes
}
