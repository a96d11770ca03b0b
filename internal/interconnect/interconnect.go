// Package interconnect models the memory interconnection networks of
// multiprocessor systems (paper Fig. 2): the links between memory
// controllers that remote off-chip requests traverse. A topology is an
// undirected graph over NUMA nodes; the simulator charges a remote access
// the hop count between the requesting core's node and the memory's home
// node times the machine's per-hop latency.
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
	hops [][]int
}

// New builds a topology of n nodes from an undirected link list and
// computes all-pairs hop distances by BFS. The graph must be connected;
// name identifies the topology in errors.
func New(name string, n int, links [][2]int) (*Topology, error) {
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
	t := &Topology{hops: make([][]int, n)}
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
func SingleNode() *Topology { return &Topology{hops: [][]int{{0}}} }

// Hops returns the hop distance between nodes a and b (0 for a == b).
func (t *Topology) Hops(a, b int) int { return t.hops[a][b] }
