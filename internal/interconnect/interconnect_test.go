package interconnect

import (
	"sort"
	"testing"
	"testing/quick"
)

// hopClasses returns the sorted distinct hop counts over all node pairs of
// an n-node topology — the paper's "direct, one hop, two hops" latency
// classes. Its last element is the network diameter.
func hopClasses(top *Topology, n int) []int {
	present := map[int]bool{}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			present[top.Hops(a, b)] = true
		}
	}
	var classes []int
	for h := range present {
		classes = append(classes, h)
	}
	sort.Ints(classes)
	return classes
}

func TestNewValidation(t *testing.T) {
	if _, err := New("t", 0, nil); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New("t", 2, [][2]int{{0, 2}}); err == nil {
		t.Error("out-of-range link accepted")
	}
	if _, err := New("t", 2, [][2]int{{1, 1}}); err == nil {
		t.Error("self link accepted")
	}
	if _, err := New("t", 3, [][2]int{{0, 1}}); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestSingleNode(t *testing.T) {
	s := SingleNode()
	if s.Hops(0, 0) != 0 {
		t.Errorf("single node wrong: %+v", s)
	}
	classes := hopClasses(s, 1)
	if len(classes) != 1 || classes[0] != 0 {
		t.Errorf("classes = %v", classes)
	}
}

func TestTwoNodeDirect(t *testing.T) {
	// Intel NUMA: two MCs directly interconnected.
	top, err := New("intel", 2, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if top.Hops(0, 1) != 1 || top.Hops(1, 0) != 1 {
		t.Error("hop count wrong")
	}
	if top.Hops(0, 0) != 0 {
		t.Error("local hops must be 0")
	}
	classes := hopClasses(top, 2)
	if len(classes) != 2 || classes[0] != 0 || classes[1] != 1 {
		t.Errorf("classes = %v", classes)
	}
}

func TestFullMesh(t *testing.T) {
	top, err := New("m", 4, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			want := 1
			if a == b {
				want = 0
			}
			if top.Hops(a, b) != want {
				t.Errorf("hops(%d,%d) = %d, want %d", a, b, top.Hops(a, b), want)
			}
		}
	}
}

func TestRing(t *testing.T) {
	top, err := New("r", 6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if top.Hops(0, 3) != 3 {
		t.Errorf("opposite nodes = %d hops", top.Hops(0, 3))
	}
	if top.Hops(0, 5) != 1 {
		t.Errorf("wraparound = %d hops", top.Hops(0, 5))
	}
	if c := hopClasses(top, 6); c[len(c)-1] != 3 {
		t.Errorf("diameter = %d", c[len(c)-1])
	}
}

func TestCirculantAMDShape(t *testing.T) {
	// C_8(1,2): the AMD partial mesh, node i linked to i±1 and i±2. Must
	// have exactly three latency classes (direct=0, one hop, two hops) and
	// diameter 2.
	var links [][2]int
	for i := 0; i < 8; i++ {
		links = append(links, [2]int{i, (i + 1) % 8}, [2]int{i, (i + 2) % 8})
	}
	top, err := New("amd", 8, links)
	if err != nil {
		t.Fatal(err)
	}
	classes := hopClasses(top, 8)
	if len(classes) != 3 || classes[2] != 2 {
		t.Errorf("latency classes = %v, want 3 classes and diameter 2", classes)
	}
	// Opposite node (distance 4 around the ring) reachable via two 2-chords.
	if top.Hops(0, 4) != 2 {
		t.Errorf("hops(0,4) = %d, want 2", top.Hops(0, 4))
	}
	if top.Hops(0, 2) != 1 {
		t.Errorf("hops(0,2) = %d, want 1 (chord)", top.Hops(0, 2))
	}
}

// Property: hop distances are symmetric, zero on the diagonal, and obey the
// triangle inequality.
func TestMetricProperty(t *testing.T) {
	f := func(linkBits uint16) bool {
		// Build a random graph over 5 nodes from the bits, then force
		// connectivity with a spine.
		n := 5
		var links [][2]int
		for i := 0; i < n-1; i++ {
			links = append(links, [2]int{i, i + 1})
		}
		bit := 0
		for a := 0; a < n; a++ {
			for b := a + 2; b < n; b++ {
				if linkBits&(1<<uint(bit)) != 0 {
					links = append(links, [2]int{a, b})
				}
				bit++
			}
		}
		top, err := New("p", n, links)
		if err != nil {
			return false
		}
		for a := 0; a < n; a++ {
			if top.Hops(a, a) != 0 {
				return false
			}
			for b := 0; b < n; b++ {
				if top.Hops(a, b) != top.Hops(b, a) {
					return false
				}
				for c := 0; c < n; c++ {
					if top.Hops(a, c) > top.Hops(a, b)+top.Hops(b, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
