package machine

import (
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/eventq"
	"repro/internal/memctrl"
)

func testSpec() Spec {
	return Spec{
		Name:           "test",
		Sockets:        2,
		CoresPerSocket: 2,
		ClockGHz:       2.0,
		Levels: []CacheLevel{
			{Config: cache.Config{Name: "L1", Size: 1 << 10, Line: 64, Ways: 2, Latency: 2}, Scope: PerCore},
			{Config: cache.Config{Name: "L2", Size: 8 << 10, Line: 64, Ways: 4, Latency: 10}, Scope: PerSocket},
		},
		MCsPerSocket: 1,
		MC: memctrl.Config{
			Channels: 1, Banks: 2, RowBytes: 2048, LineBytes: 64,
			HitLatency: 20, MissLatency: 60, Discipline: memctrl.FCFS,
		},
		HopLatency: 50,
		Links:      [][2]int{{0, 1}},
		MSHRs:      4,
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Sockets = 0 },
		func(s *Spec) { s.CoresPerSocket = 0 },
		func(s *Spec) { s.Levels = nil },
		func(s *Spec) { s.MCsPerSocket = -1 },
		func(s *Spec) { s.Sockets, s.MCsPerSocket = 2, MaxMCs/2+1 },
		func(s *Spec) { s.MSHRs = 0 },
		func(s *Spec) { s.MC.Channels = 0 },
	}
	for i, mutate := range cases {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	// The controller limit is inclusive.
	s := testSpec()
	s.Sockets, s.MCsPerSocket = 3, MaxMCs/3
	if err := s.Validate(); err != nil {
		t.Errorf("%d controllers rejected: %v", MaxMCs, err)
	}
}

func TestSpecGeometry(t *testing.T) {
	s := testSpec()
	if s.TotalCores() != 4 {
		t.Errorf("total cores = %d", s.TotalCores())
	}
	if s.UMA() {
		t.Error("NUMA spec reported UMA")
	}
	if s.NumMCs() != 2 {
		t.Errorf("NumMCs = %d", s.NumMCs())
	}
	if s.SocketOf(0) != 0 || s.SocketOf(1) != 0 || s.SocketOf(2) != 1 || s.SocketOf(3) != 1 {
		t.Error("SocketOf wrong")
	}
	if got := s.LocalMCs(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("LocalMCs(1) = %v", got)
	}

	u := IntelUMA8()
	if !u.UMA() || u.NumMCs() != 1 {
		t.Error("UMA geometry wrong")
	}
	if got := u.LocalMCs(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("UMA LocalMCs = %v", got)
	}
}

func TestBuildNUMAStructure(t *testing.T) {
	var q eventq.Queue
	m, err := Build(testSpec(), &q)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(m.Hierarchies) != 4 {
		t.Fatalf("hierarchies = %d", len(m.Hierarchies))
	}
	// 4 private L1s + 2 shared L2s.
	if len(m.Caches) != 6 {
		t.Errorf("distinct caches = %d, want 6", len(m.Caches))
	}
	if len(m.MCs) != 2 {
		t.Errorf("MCs = %d", len(m.MCs))
	}
	if len(m.Buses) != 0 {
		t.Errorf("NUMA machine should have no buses, got %d", len(m.Buses))
	}
	// Cores 0 and 1 share one L2; cores 2 and 3 share another.
	if m.LLCOf(0) != m.LLCOf(1) {
		t.Error("cores 0,1 should share L2")
	}
	if m.LLCOf(0) == m.LLCOf(2) {
		t.Error("cores on different sockets must not share L2")
	}
	if m.Topo.Hops(0, 1) != 1 {
		t.Error("topology wrong")
	}
}

func TestBuildUMAStructure(t *testing.T) {
	var q eventq.Queue
	m, err := Build(IntelUMA8(), &q)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(m.MCs) != 1 {
		t.Errorf("UMA MCs = %d", len(m.MCs))
	}
	if len(m.Buses) != 2 {
		t.Errorf("UMA buses = %d, want 2", len(m.Buses))
	}
	if m.Topo == nil || m.Topo.Hops(0, 0) != 0 {
		t.Error("UMA topology wrong")
	}
	// 8 L1 + 2 L2 = 10 distinct caches.
	if len(m.Caches) != 10 {
		t.Errorf("distinct caches = %d, want 10", len(m.Caches))
	}
}

func TestBuildInvalid(t *testing.T) {
	var q eventq.Queue
	s := testSpec()
	s.MSHRs = 0
	if _, err := Build(s, &q); err == nil {
		t.Error("invalid spec built")
	}
	s = testSpec()
	s.Links = nil // disconnected 2-node NUMA graph
	if _, err := Build(s, &q); err == nil {
		t.Error("disconnected topology accepted")
	}
	s = testSpec()
	s.Levels[0].Size = 100 // invalid cache geometry
	if _, err := Build(s, &q); err == nil {
		t.Error("invalid cache accepted")
	}
}

func TestLLCMissesAggregation(t *testing.T) {
	var q eventq.Queue
	m, err := Build(testSpec(), &q)
	if err != nil {
		t.Fatal(err)
	}
	// Touch distinct lines through cores on both sockets.
	m.Hierarchies[0].Access(0)
	m.Hierarchies[0].Access(64)
	m.Hierarchies[2].Access(1 << 20)
	if got := m.LLCMisses(); got != 3 {
		t.Errorf("LLC misses = %d, want 3", got)
	}
	// A shared-LLC hit from the sibling core adds no miss.
	m.Hierarchies[1].Access(0)
	if got := m.LLCMisses(); got != 3 {
		t.Errorf("LLC misses after shared hit = %d, want 3", got)
	}
	m.ResetStats()
	if got := m.LLCMisses(); got != 0 {
		t.Errorf("LLC misses after reset = %d", got)
	}
}

func TestPresetsBuild(t *testing.T) {
	for _, spec := range All() {
		var q eventq.Queue
		m, err := Build(spec, &q)
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if len(m.Hierarchies) != spec.TotalCores() {
			t.Errorf("%s: %d hierarchies", spec.Name, len(m.Hierarchies))
		}
	}
}

func TestPresetGeometryMatchesPaper(t *testing.T) {
	u := IntelUMA8()
	if u.TotalCores() != 8 || u.NumMCs() != 1 {
		t.Error("IntelUMA8 geometry wrong")
	}
	in := IntelNUMA24()
	if in.TotalCores() != 24 || in.NumMCs() != 2 {
		t.Error("IntelNUMA24 geometry wrong")
	}
	amd := AMDNUMA48()
	if amd.TotalCores() != 48 || amd.NumMCs() != 8 {
		t.Error("AMDNUMA48 geometry wrong")
	}
	// AMD topology must expose three latency classes (paper Fig. 2b).
	var q eventq.Queue
	m, err := Build(amd, &q)
	if err != nil {
		t.Fatal(err)
	}
	if classes := hopClasses(m); len(classes) != 3 {
		t.Errorf("AMD latency classes = %v", classes)
	}
	// C8(1,2): diameter 2; the opposite node (distance 4 around the ring)
	// is reached via two 2-chords, and a 2-chord is a single hop.
	if classes := hopClasses(m); classes[len(classes)-1] != 2 {
		t.Errorf("AMD diameter = %d, want 2", classes[len(classes)-1])
	}
	if h := m.Topo.Hops(0, 4); h != 2 {
		t.Errorf("AMD hops(0,4) = %d, want 2", h)
	}
	if h := m.Topo.Hops(0, 2); h != 1 {
		t.Errorf("AMD hops(0,2) = %d, want 1 (chord)", h)
	}
	// Intel NUMA: two classes (direct, one hop).
	m2, err := Build(in, &q)
	if err != nil {
		t.Fatal(err)
	}
	if classes := hopClasses(m2); len(classes) != 2 {
		t.Errorf("Intel NUMA latency classes = %v", classes)
	}
}

// hopClasses returns the sorted distinct hop counts between the NUMA nodes
// of m, one node per memory controller: the paper's "direct, one hop, two
// hops" latency classes. Its last element is the network diameter.
func hopClasses(m *Machine) []int {
	n := m.Spec.NumMCs()
	present := map[int]bool{}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			present[m.Topo.Hops(a, b)] = true
		}
	}
	var classes []int
	for h := range present {
		classes = append(classes, h)
	}
	sort.Ints(classes)
	return classes
}

func TestByNameAndNames(t *testing.T) {
	if _, err := ByName("IntelUMA8"); err != nil {
		t.Errorf("ByName: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	names := Names()
	if len(names) != 3 {
		t.Errorf("names = %v", names)
	}
}

func TestScopeString(t *testing.T) {
	if PerCore.String() != "per-core" || PerSocket.String() != "per-socket" || Scope(9).String() != "unknown" {
		t.Error("scope strings wrong")
	}
}

func TestLinkServersBuilt(t *testing.T) {
	var q eventq.Queue
	// NUMA preset with link bandwidth: one link server per socket.
	m, err := Build(IntelNUMA24(), &q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.LinkServers) != 2 {
		t.Errorf("link servers = %d, want 2", len(m.LinkServers))
	}
	// UMA machines have no interconnect links.
	mu, err := Build(IntelUMA8(), &q)
	if err != nil {
		t.Fatal(err)
	}
	if len(mu.LinkServers) != 0 {
		t.Errorf("UMA link servers = %d, want 0", len(mu.LinkServers))
	}
	// Disabling LinkOccupancy disables the servers.
	s := IntelNUMA24()
	s.LinkOccupancy = 0
	m2, err := Build(s, &q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.LinkServers) != 0 {
		t.Errorf("disabled link servers = %d, want 0", len(m2.LinkServers))
	}
}

func TestResetStatsCoversLinks(t *testing.T) {
	var q eventq.Queue
	m, err := Build(IntelNUMA24(), &q)
	if err != nil {
		t.Fatal(err)
	}
	m.LinkServers[0].Submit(0, func(bool) {})
	q.Run()
	m.ResetStats()
	if m.LinkServers[0].Stats().Requests != 0 {
		t.Error("link stats not reset")
	}
}
